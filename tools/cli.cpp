#include "tools/cli.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "obs/trace.hpp"
#include "tools/cli_args.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

#include "benchgen/circuit.hpp"
#include "benchgen/specgen.hpp"
#include "core/analyze.hpp"
#include "core/report.hpp"
#include "core/tool.hpp"
#include "flow/certify.hpp"
#include "lint/driver.hpp"
#include "netlist/verilog.hpp"
#include "rsn/icl.hpp"
#include "rsn/io.hpp"
#include "security/filter.hpp"
#include "security/spec_io.hpp"
#include "serve/service.hpp"
#include "store/dep_cache.hpp"
#include "store/tile_spill.hpp"

namespace rsnsec::cli {

namespace {

std::ifstream open_input(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  return f;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write '" + path + "'");
  return f;
}

/// The whole file: one read into a string sized from its length, then
/// read_all to the end, which finds nothing more unless the length was
/// short (a file still growing, a procfs file that reports 0, a pipe or
/// device, which has none).
std::string read_file(const std::string& path) {
  obs::Span span(obs::TraceSession::active(), "input.read");
  std::ifstream f = open_input(path);
  std::error_code ec;
  std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) size = 0;
  std::string text(size, '\0');
  f.read(text.data(), static_cast<std::streamsize>(size));
  text.resize(static_cast<std::size_t>(f.gcount()));
  text += read_all(f);
  return text;
}

/// The texts `--rsn FILE` or `--icl FILE [--top T]`, `--verilog FILE`
/// and `--spec FILE` name, each file read whole.
struct DesignFiles {
  bool icl = false;
  std::string network, top, verilog, spec;

  DesignText text() const {
    return {.network = network, .verilog = verilog, .spec = spec,
            .icl = icl, .top = top};
  }
};

DesignFiles read_network_file(const Args& args) {
  DesignFiles f;
  if (auto p = args.get("rsn")) {
    f.network = read_file(*p);
    return f;
  }
  if (auto p = args.get("icl")) {
    f.icl = true;
    f.network = read_file(*p);
    f.top = args.get("top").value_or("");
    return f;
  }
  throw UsageError("need --rsn FILE or --icl FILE");
}

/// The network file is read first, so an unreadable one is reported
/// before a missing --verilog or --spec.
DesignFiles read_design_files(const Args& args) {
  DesignFiles f = read_network_file(args);
  f.verilog = read_file(args.require("verilog"));
  f.spec = read_file(args.require("spec"));
  return f;
}

rsn::RsnDocument load_network(const Args& args) {
  return read_network(read_network_file(args).text());
}

Workload load_workload(const Args& args) {
  return load_design(read_design_files(args).text());
}

}  // namespace

std::uint64_t u64_or_usage(const std::string& s, const std::string& what) {
  std::optional<std::uint64_t> v = parse_u64(s);
  if (!v)
    throw UsageError(what + " needs a non-negative integer, got '" + s +
                     "'");
  return *v;
}

double double_or_usage(const std::string& s, const std::string& what) {
  std::optional<double> v = parse_double(s);
  if (!v) throw UsageError(what + " needs a number, got '" + s + "'");
  return *v;
}

int count_option(const Args& args, const std::string& key, int fallback) {
  auto v = args.get(key);
  if (!v) return fallback;
  std::uint64_t n = u64_or_usage(*v, "--" + key);
  if (n == 0 || n > static_cast<std::uint64_t>(INT_MAX))
    throw UsageError("--" + key + " needs a count in [1, " +
                     std::to_string(INT_MAX) + "], got '" + *v + "'");
  return static_cast<int>(n);
}

/// An explicit `--jobs 0` is rejected rather than read as "auto" (the
/// internal encoding): say `--jobs 1` for serial, omit the flag for auto.
std::size_t threads_option(const Args& args, const std::string& key,
                           std::size_t fallback) {
  auto v = args.get(key);
  if (!v) return fallback;
  std::uint64_t n = u64_or_usage(*v, "--" + key);
  if (n == 0 || n > ThreadPool::kMaxThreads)
    throw UsageError(
        "--" + key + " needs a thread count in [1, " +
        std::to_string(ThreadPool::kMaxThreads) +
        "] (omit the flag for " +
        (fallback == 0 ? std::string("auto")
                       : "the default of " + std::to_string(fallback)) +
        ")");
  return static_cast<std::size_t>(n);
}

std::size_t jobs_option(const Args& args) {
  return threads_option(args, "jobs", 0);
}

std::string store_dir(const Args& args) {
  if (auto s = args.get("store")) return *s;
  if (const char* env = std::getenv("RSNSEC_STORE");
      env != nullptr && *env != '\0')
    return env;
  return {};
}

std::unique_ptr<store::ArtifactStore> open_store(const Args& args) {
  std::string dir = store_dir(args);
  if (dir.empty()) return nullptr;
  return std::make_unique<store::ArtifactStore>(dir);
}

/// Every numeric argument goes through u64_or_usage / double_or_usage so a
/// malformed value exits 2, like the rest of the CLI.
AttackCliOptions attack_cli_options(const Args& args) {
  AttackCliOptions o;
  o.seed = u64_or_usage(args.get("seed").value_or("1"), "--seed");
  o.redteam.scale =
      double_or_usage(args.get("scale").value_or("1.0"), "--scale");
  if (auto v = args.get("target-ffs"))
    o.redteam.target_ffs =
        static_cast<std::size_t>(u64_or_usage(*v, "--target-ffs"));
  if (auto v = args.get("target-regs"))
    o.redteam.target_regs =
        static_cast<std::size_t>(u64_or_usage(*v, "--target-regs"));
  if (auto s = args.get("scenario")) {
    if (*s == "pure") {
      o.redteam.plant_hybrid = false;
    } else if (*s == "hybrid") {
      o.redteam.plant_pure = false;
    } else if (*s != "all") {
      throw UsageError("unknown --scenario '" + *s +
                       "' (try: pure, hybrid, all)");
    }
  }
  o.engine.seed = o.seed;
  o.engine.sat_conflict_limit = u64_or_usage(
      args.get("conflict-limit").value_or("100000"), "--conflict-limit");
  return o;
}

std::optional<std::array<std::size_t, 3>> mbist_dimensions(
    const std::string& name) {
  if (name.rfind("MBIST_", 0) != 0) return std::nullopt;
  const std::vector<std::string> pieces = split(name.substr(6), '_');
  std::array<std::size_t, 3> dims{};
  for (std::size_t i = 0; i < pieces.size() && i < dims.size(); ++i)
    dims[i] = static_cast<std::size_t>(
        u64_or_usage(pieces[i], "MBIST dimension in '" + name + "'"));
  // A zero dimension leaves no memory data register to split the FF
  // budget over (generate_mbist divides by n * m * o).
  if (pieces.size() != 3 ||
      std::find(dims.begin(), dims.end(), 0) != dims.end())
    throw UsageError("MBIST benchmark must be MBIST_n_m_o with positive n, "
                     "m and o, got '" + name + "'");
  return dims;
}

const benchgen::BenchmarkProfile& attack_benchmark(const std::string& name) {
  try {
    return benchgen::bastion_profile(name);
  } catch (const std::exception&) {
    std::string known;
    for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
      known += (known.empty() ? "" : ", ") + p.name;
    throw UsageError("unknown --benchmark '" + name + "' (try: " + known +
                     ")");
  }
}

void serve_tuning(const Args& args, serve::ServerOptions& opt) {
  opt.workers = threads_option(args, "workers", opt.workers);
  if (auto q = args.get("queue-depth")) {
    std::uint64_t n = u64_or_usage(*q, "--queue-depth");
    if (n == 0) throw UsageError("--queue-depth needs a positive bound");
    opt.queue_capacity = static_cast<std::size_t>(n);
  }
  if (auto m = args.get("max-request-bytes")) {
    std::uint64_t n = u64_or_usage(*m, "--max-request-bytes");
    if (n == 0)
      throw UsageError("--max-request-bytes needs a positive byte cap");
    opt.max_request_bytes = static_cast<std::size_t>(n);
  }
}

namespace {

PipelineOptions pipeline_options(const Args& args) {
  PipelineOptions opt;
  if (args.has_flag("structural"))
    opt.dep.mode = dep::DepMode::StructuralOnly;
  // Spelled-out alternative to the --structural shorthand; any value the
  // tool does not understand is the caller's mistake (exit 2), not a
  // silent fall-through to the default.
  if (auto m = args.get("mode")) {
    if (*m == "exact")
      opt.dep.mode = dep::DepMode::Exact;
    else if (*m == "structural")
      opt.dep.mode = dep::DepMode::StructuralOnly;
    else
      throw UsageError("unknown --mode '" + *m +
                       "' (try: exact, structural)");
  }
  if (args.has_flag("no-ternary")) opt.dep.ternary_prefilter = false;
  opt.verify = args.has_flag("verify");
  // Matrix representation. Bit-identical results either way (pinned by
  // the partitioned-oracle tests); "auto" switches on circuit size.
  if (auto p = args.get("partition")) {
    if (*p == "auto")
      opt.dep.partition = dep::PartitionMode::Auto;
    else if (*p == "dense")
      opt.dep.partition = dep::PartitionMode::Dense;
    else if (*p == "tiled")
      opt.dep.partition = dep::PartitionMode::Tiled;
    else
      throw UsageError("unknown --partition '" + *p +
                       "' (try: auto, dense, tiled)");
  }
  // Resident-byte budget per tiled matrix; tiles beyond it spill to the
  // artifact store. The backend itself is wired by the subcommand, which
  // owns the store handle.
  if (auto b = args.get("tile-spill-budget"))
    opt.dep.tile_spill_budget = u64_or_usage(*b, "--tile-spill-budget");
  opt.resolve.num_threads = jobs_option(args);
  return opt;
}

/// Wires the out-of-core tile spill path: with --tile-spill-budget set,
/// evicted tiles go through an ArtifactSpillBackend over the invocation's
/// store. Asking for spill without a store is a usage error — there would
/// be nowhere to put the tiles. Returns the backend (owning pointer; must
/// outlive the analysis) or nullptr when spilling is off.
std::unique_ptr<store::ArtifactSpillBackend> wire_spill(
    PipelineOptions& opt, store::ArtifactStore* artifact_store) {
  if (opt.dep.tile_spill_budget == 0) return nullptr;
  if (artifact_store == nullptr)
    throw UsageError(
        "--tile-spill-budget needs an artifact store (--store DIR or "
        "RSNSEC_STORE)");
  auto backend = std::make_unique<store::ArtifactSpillBackend>(artifact_store);
  opt.dep.spill_backend = backend.get();
  return backend;
}

int cmd_lint(const Args& args, std::ostream& out) {
  if (args.positionals.empty())
    throw UsageError(
        "lint needs input files (.rsn/.icl/.v/.spec), e.g. "
        "rsnsec lint net.rsn ckt.v policy.spec");
  lint::Registry registry = lint::Registry::with_default_passes();
  std::vector<lint::Diagnostic> diags = lint::lint_files(
      registry, args.positionals, args.get("top").value_or(""),
      jobs_option(args));
  if (args.has_flag("json"))
    lint::render_json(out, diags);
  else
    lint::render_text(out, diags);
  return lint::count_at_least(diags, lint::Severity::Error) > 0 ? 2 : 0;
}

int cmd_generate(const Args& args, std::ostream& out) {
  std::string name = args.require("benchmark");
  double scale = double_or_usage(args.get("scale").value_or("1.0"),
                                 "--scale");
  std::uint64_t seed = u64_or_usage(args.get("seed").value_or("1"),
                                    "--seed");
  Rng rng(seed);

  rsn::RsnDocument doc;
  // A dimension product too large for the generators (they refuse with
  // std::overflow_error rather than wrapping, see benchgen/families.cpp)
  // is the caller's mistake, same as a malformed number: exit 2.
  try {
    if (std::optional<std::array<std::size_t, 3>> dims =
            mbist_dimensions(name)) {
      doc = benchgen::generate_mbist((*dims)[0], (*dims)[1], (*dims)[2],
                                     scale);
    } else {
      doc = benchgen::generate_bastion(benchgen::bastion_profile(name), scale,
                                       rng);
    }
  } catch (const std::overflow_error& e) {
    throw UsageError("benchmark '" + name + "' is too large: " + e.what());
  }

  netlist::Netlist circuit;
  bool with_circuit = args.get("out-verilog").has_value();
  if (with_circuit) {
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
    std::ofstream f = open_output(args.require("out-verilog"));
    netlist::verilog::write(f, circuit, doc.network.name());
  }
  {
    std::ofstream f = open_output(args.require("out-rsn"));
    rsn::write_rsn(f, doc.network, doc.module_names,
                   with_circuit ? &circuit : nullptr);
  }
  if (args.get("out-spec")) {
    benchgen::SpecOptions sopt;
    security::SecuritySpec spec =
        benchgen::random_spec(doc.module_names.size(), sopt, rng);
    std::ofstream f = open_output(args.require("out-spec"));
    security::write_spec(f, spec, doc.module_names);
  }
  out << "generated " << rsn::summarize(doc.network) << "\n";
  return 0;
}

int cmd_info(const Args& args, std::ostream& out) {
  rsn::RsnDocument doc = load_network(args);
  out << rsn::summarize(doc.network) << "\n";
  out << "modules: " << doc.module_names.size() << "\n";
  std::string err;
  out << "valid: " << (doc.network.validate(&err) ? "yes" : "no (" + err + ")")
      << "\n";
  const rsn::ScanAccess access = doc.network.scan_access();
  const std::vector<rsn::ElemId>& regs = doc.network.registers();
  out << "accessible registers: "
      << std::count_if(regs.begin(), regs.end(),
                       [&](rsn::ElemId r) { return access.accessible(r); })
      << " / " << regs.size() << "\n";
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
  // The filter-baseline line is text; after a JSON report it would break
  // the one-object stdout contract.
  if (args.has_flag("json") && args.has_flag("filter-baseline"))
    throw UsageError(
        "analyze --filter-baseline only has a text report; drop --json");
  const DesignFiles files = read_design_files(args);
  std::unique_ptr<store::ArtifactStore> artifact_store = open_store(args);
  PipelineOptions popt = pipeline_options(args);
  std::unique_ptr<store::ArtifactSpillBackend> spill =
      wire_spill(popt, artifact_store.get());
  const AnalyzeResult result =
      analyze(files.text(), popt.dep, artifact_store.get());
  const AnalyzeReport& rep = result.report;

  if (args.has_flag("json")) {
    // Shared emitter and analyze body (also the serve daemon's analyze
    // replies, so a daemon request is byte-identical to this output).
    write_analyze_json(out, rep);
    out << "\n";
  } else {
    const dep::DepStats& ds = rep.dep_stats;
    out << "insecure circuit logic: " << (rep.insecure_logic ? "YES" : "no")
        << "\n";
    out << "intra-segment flows:    " << (rep.intra_segment ? "YES" : "no")
        << "\n";
    out << "violating registers:    " << rep.violating_registers << "\n";
    out << "violating pairs:        " << rep.pure_violating_pairs << " pure, "
        << rep.hybrid_violating_pairs << " incl. hybrid\n";
    out << "dependency matrices:    " << (rep.dep_tiled ? "tiled" : "dense")
        << ", " << ds.matrix_bytes << " bytes resident";
    if (rep.dep_tiled)
      out << " (" << ds.regions << " regions, " << ds.tiles_nonzero
          << " tiles, " << ds.tiles_spilled << " spill evictions)";
    out << "\n";
    for (const std::string& d : result.static_details)
      out << "  " << d << "\n";
  }
  if (args.has_flag("filter-baseline")) {
    // The report keeps no network: read it and the spec again.
    const rsn::RsnDocument doc = read_network(files.text());
    const security::SecuritySpec spec =
        security::read_spec(files.spec, doc.module_names);
    security::TokenTable tokens(spec, spec.num_modules());
    security::AccessFilterBaseline filter(doc.network, spec, tokens);
    security::FilterReport fr = filter.analyze();
    out << "filter baseline would lock out " << fr.inaccessible.size()
        << " / " << doc.network.registers().size() << " registers\n";
  }
  bool any = rep.insecure_logic || rep.intra_segment ||
             rep.hybrid_violating_pairs > 0;
  return any ? 2 : 0;
}

int cmd_secure(const Args& args, std::ostream& out) {
  Workload w = load_workload(args);
  std::unique_ptr<store::ArtifactStore> artifact_store = open_store(args);
  PipelineOptions opt = pipeline_options(args);
  opt.store = artifact_store.get();
  std::unique_ptr<store::ArtifactSpillBackend> spill =
      wire_spill(opt, artifact_store.get());
  SecureFlowTool tool(w.circuit, w.doc.network, w.spec, opt);
  PipelineResult result = tool.run();

  if (args.has_flag("json")) {
    write_json(out, result);
  } else {
    out << "secured: " << (result.secured ? "yes" : "no") << "\n";
    out << "violating registers before: "
        << result.initial_violating_registers << "\n";
    out << "applied changes: " << result.pure.applied_changes << " pure + "
        << result.hybrid.applied_changes << " hybrid\n";
    for (const security::AppliedChange& c : result.changes)
      out << "  - " << c.note << "\n";
  }
  if (!result.secured) return 3;
  std::ofstream f = open_output(args.require("out"));
  rsn::write_rsn(f, w.doc.network, w.doc.module_names, &w.circuit);
  return 0;
}

int cmd_certify(const Args& args, std::ostream& out) {
  Workload w = load_workload(args);
  flow::CertifyOptions opt;
  if (args.has_flag("no-ternary")) opt.ternary_refine = false;
  if (auto m = args.get("max-findings"))
    opt.max_findings_per_code =
        static_cast<std::size_t>(u64_or_usage(*m, "--max-findings"));
  flow::CertifyResult result =
      flow::certify(w.circuit, w.doc.network, w.spec, opt);

  if (args.has_flag("json")) {
    out << "{\"certified\": " << (result.certified() ? "true" : "false")
        << ", \"violating_pairs\": " << result.stats.violating_pairs
        << ", \"nodes\": " << result.stats.nodes
        << ", \"edges\": " << result.stats.edges
        << ", \"ternary_discharged\": " << result.stats.ternary_discharged
        << ", \"ternary_refine\": " << (opt.ternary_refine ? "true" : "false")
        << ", \"report\": ";
    lint::render_json(out, result.diagnostics);
    out << "}\n";
  } else {
    lint::render_text(out, result.diagnostics);
    out << "certified: " << (result.certified() ? "yes" : "NO") << "  ("
        << result.stats.violating_pairs << " violating pair(s) over "
        << result.stats.nodes << " nodes, " << result.stats.edges
        << " edges)\n";
  }
  return result.certified() ? 0 : 2;
}

void write_outcome_json(std::ostream& out, const attack::AttackOutcome& o) {
  out << "{\"method\": \"" << o.method << "\", \"verdict\": \""
      << attack::verdict_name(o.verdict)
      << "\", \"recovered_value\": " << (o.recovered_value ? 1 : 0)
      << ", \"secret_value\": " << (o.secret_value ? 1 : 0)
      << ", \"leaks\": " << (o.differential.leaks ? "true" : "false")
      << ", \"diff_ops\": " << o.differential.witness.diff_ops.size()
      << ", \"shifts\": " << o.differential.shifts
      << ", \"captures\": " << o.differential.captures
      << ", \"updates\": " << o.differential.updates
      << ", \"sat_calls\": " << o.sat_calls << ", \"seconds\": " << o.seconds
      << ", \"note\": \"" << json_escape(o.note) << "\"}";
}

void write_scenario_json(std::ostream& out,
                         const attack::ScenarioResult& res) {
  out << "{\"scenario\": \"" << res.scenario << "\", \"kind\": \""
      << benchgen::scenario_kind_name(res.kind) << "\", \"outcomes\": [";
  for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
    if (i) out << ", ";
    write_outcome_json(out, res.outcomes[i]);
  }
  out << "], \"cross_check\": {\"ran\": "
      << (res.cross.ran ? "true" : "false")
      << ", \"violating_pairs\": " << res.cross.violating_pairs
      << ", \"certified\": " << (res.cross.certified ? "true" : "false")
      << ", \"dep_secret_edge\": "
      << (res.cross.dep_secret_edge ? "true" : "false")
      << ", \"consistent\": " << (res.cross.consistent ? "true" : "false")
      << "}}";
}

void print_scenario_text(std::ostream& out, const std::string& phase,
                         const attack::ScenarioResult& res) {
  for (const attack::AttackOutcome& o : res.outcomes) {
    out << "  [" << phase << "] " << res.scenario << " / " << o.method
        << ": " << attack::verdict_name(o.verdict);
    if (o.recovered())
      out << " (secret = " << (o.recovered_value ? 1 : 0) << ", witness: "
          << o.differential.witness.diff_ops.size() << " diff ops over "
          << o.differential.shifts << " shifts)";
    if (!o.note.empty()) out << " — " << o.note;
    out << "\n";
  }
  if (res.cross.ran) {
    out << "  [" << phase << "] " << res.scenario
        << " / cross-check: " << res.cross.violating_pairs
        << " violating pair(s), certified "
        << (res.cross.certified ? "yes" : "no") << ", dep edge "
        << (res.cross.dep_secret_edge ? "present" : "absent") << " -> "
        << (res.cross.consistent ? "consistent" : "INCONSISTENT") << "\n";
    for (const std::string& n : res.cross.notes)
      out << "      soundness: " << n << "\n";
  }
}

/// `rsnsec attack`: generates a red-team workload of the given BASTION
/// family with planted secrets, mounts the ScanSAT and GF-Flush attacks
/// against the unsecured network, then (unless --no-secure) secures a copy
/// per scenario and re-attacks it. Exit codes: 0 = expected outcome
/// (secrets recovered pre-secure, nothing recovered post-secure, all
/// verdicts consistent with the static analyses); 2 = usage; 3 = soundness
/// bug (verdicts inconsistent, or a recovery post-secure); 4 = no attack
/// recovered the planted secret from the unsecured network.
int cmd_attack(const Args& args, std::ostream& out) {
  std::string name = args.require("benchmark");
  attack_benchmark(name);
  AttackCliOptions o = attack_cli_options(args);
  const std::size_t jobs = jobs_option(args);
  const bool json = args.has_flag("json");
  const bool do_secure = !args.has_flag("no-secure");

  benchgen::RedTeamWorkload w =
      benchgen::make_redteam_workload(name, o.seed, o.redteam);
  attack::AttackReport pre =
      attack::run_attacks(w.circuit, w.doc.network, w.scenarios, o.engine);

  bool post_recovered = false;
  bool post_inconsistent = false;
  std::vector<attack::AttackReport> post;
  if (do_secure) {
    for (const benchgen::RedTeamScenario& sc : w.scenarios) {
      rsn::Rsn net = w.doc.network;
      PipelineOptions popt;
      popt.resolve.num_threads = jobs;
      SecureFlowTool tool(w.circuit, net, sc.spec, popt);
      PipelineResult r = tool.run();
      if (!r.secured)
        throw std::runtime_error("secure failed on the '" + sc.name +
                                 "' red-team workload (static report not "
                                 "clean?)");
      attack::AttackReport rep =
          attack::run_attacks(w.circuit, net, {sc}, o.engine);
      post_recovered |= rep.any_recovered();
      post_inconsistent |= rep.soundness_bug();
      post.push_back(std::move(rep));
    }
  }

  bool soundness_bug =
      pre.soundness_bug() || post_inconsistent || post_recovered;
  if (json) {
    out << "{\"benchmark\": \"" << name << "\", \"seed\": " << o.seed
        << ", \"pre_secure\": [";
    for (std::size_t i = 0; i < pre.scenarios.size(); ++i) {
      if (i) out << ", ";
      write_scenario_json(out, pre.scenarios[i]);
    }
    out << "], \"post_secure\": [";
    bool first = true;
    for (const attack::AttackReport& rep : post)
      for (const attack::ScenarioResult& sc : rep.scenarios) {
        if (!first) out << ", ";
        first = false;
        write_scenario_json(out, sc);
      }
    out << "], \"recovered_pre\": " << (pre.any_recovered() ? "true" : "false")
        << ", \"recovered_post\": " << (post_recovered ? "true" : "false")
        << ", \"soundness_bug\": " << (soundness_bug ? "true" : "false")
        << "}\n";
  } else {
    out << "attack: " << name << " (seed " << o.seed << ", "
        << w.scenarios.size() << " planted scenario(s))\n";
    for (const attack::ScenarioResult& sc : pre.scenarios)
      print_scenario_text(out, "unsecured", sc);
    for (const attack::AttackReport& rep : post)
      for (const attack::ScenarioResult& sc : rep.scenarios)
        print_scenario_text(out, "secured", sc);
    out << "verdict: "
        << (soundness_bug ? "SOUNDNESS BUG"
            : pre.any_recovered()
                ? (do_secure ? "leak demonstrated, secure defeats it"
                             : "leak demonstrated")
                : "no attack recovered the planted secret")
        << "\n";
  }
  if (soundness_bug) return 3;
  if (!pre.any_recovered()) return 4;
  return 0;
}

/// Resolves the serve listener endpoint: --socket PATH and --port N are
/// mutually exclusive (exit 2 when both are given); with neither, the
/// RSNSEC_SERVE_SOCKET environment variable supplies the unix path —
/// flag-beats-env, the same precedence --store has over RSNSEC_STORE.
serve::ServerOptions serve_endpoint(const Args& args) {
  serve::ServerOptions opt;
  auto sock = args.get("socket");
  auto port = args.get("port");
  if (sock && port)
    throw UsageError(
        "--socket and --port are mutually exclusive (pick one listener)");
  if (sock) {
    opt.socket_path = *sock;
  } else if (port) {
    std::uint64_t p = u64_or_usage(*port, "--port");
    if (p > 65535) throw UsageError("--port needs a value in [0, 65535]");
    opt.port = static_cast<int>(p);
  } else if (const char* env = std::getenv("RSNSEC_SERVE_SOCKET");
             env != nullptr && *env != '\0') {
    opt.socket_path = env;
  } else {
    throw UsageError(
        "serve needs --socket PATH or --port N (or RSNSEC_SERVE_SOCKET "
        "set)");
  }
  return opt;
}

/// `rsnsec serve`: long-running analysis daemon. Line-delimited JSON
/// requests over a unix or loopback-TCP socket (see src/serve/protocol.hpp
/// for the frame format and the SRV error-code table); all tenants share
/// one artifact store, one analysis thread pool and one trace session, so
/// repeated designs warm-start regardless of who analyzed them first.
/// Runs until SIGINT/SIGTERM or a `shutdown` request, draining in-flight
/// work before exiting.
int cmd_serve(const Args& args, std::ostream& out) {
  serve::ServerOptions opt = serve_endpoint(args);
  serve_tuning(args, opt);

  serve::ServiceOptions sopt;
  sopt.store_dir = store_dir(args);
  sopt.analysis_threads = jobs_option(args);
  serve::AnalysisService service(sopt);

  serve::Server server(service, opt);
  serve::install_signal_handlers();
  server.bind();
  if (!opt.socket_path.empty())
    out << "listening on unix socket " << opt.socket_path;
  else
    out << "listening on 127.0.0.1:" << server.port();
  out << " (workers " << opt.workers << ", queue " << opt.queue_capacity
      << ", store "
      << (sopt.store_dir.empty() ? std::string("off") : sopt.store_dir)
      << ")\n"
      << std::flush;
  server.serve();
  out << "drained; served " << server.requests_handled() << " request(s)\n";
  return 0;
}

int cmd_store(const Args& args, std::ostream& out) {
  if (args.positionals.size() != 1)
    throw UsageError(
        "store needs exactly one action: stats, verify or gc, e.g. "
        "rsnsec store stats --store DIR");
  std::string dir = store_dir(args);
  if (dir.empty())
    throw UsageError("store needs --store DIR (or RSNSEC_STORE set)");
  store::ArtifactStore st(dir);
  const std::string& action = args.positionals[0];
  const bool json = args.has_flag("json");

  if (action == "stats") {
    store::DiskStats s = st.disk_stats();
    if (json) {
      out << "{\"objects\": " << s.objects << ", \"bytes\": " << s.bytes
          << ", \"quarantined\": " << s.quarantined << "}\n";
    } else {
      out << "store: " << dir << "\n";
      out << "objects:     " << s.objects << " (" << s.bytes << " bytes)\n";
      out << "quarantined: " << s.quarantined << "\n";
    }
    return 0;
  }
  if (action == "verify") {
    store::VerifyResult r = st.verify();
    if (json) {
      out << "{\"valid\": " << r.valid << ", \"corrupt\": " << r.corrupt
          << "}\n";
    } else {
      out << "valid:   " << r.valid << "\n";
      out << "corrupt: " << r.corrupt
          << (r.corrupt > 0 ? " (moved to quarantine/)" : "") << "\n";
    }
    return r.corrupt > 0 ? 2 : 0;
  }
  if (action == "gc") {
    std::uint64_t max_bytes =
        u64_or_usage(args.get("max-bytes").value_or("0"), "--max-bytes");
    std::size_t evicted = st.gc(max_bytes);
    store::DiskStats s = st.disk_stats();
    if (json) {
      out << "{\"evicted\": " << evicted << ", \"objects\": " << s.objects
          << ", \"bytes\": " << s.bytes << "}\n";
    } else {
      out << "evicted " << evicted << " objects; " << s.objects
          << " remain (" << s.bytes << " bytes)\n";
    }
    return 0;
  }
  throw UsageError("unknown store action '" + action +
                   "' (try: stats, verify, gc)");
}

/// Installs a process-wide TraceSession when --trace FILE, --metrics or
/// the RSNSEC_TRACE environment variable asks for one, and writes the
/// requested sinks when the command finishes. The session deactivates on
/// scope exit (exceptions included) so nothing outlives the run.
class TraceScope {
 public:
  TraceScope(const Args& args, std::ostream& err) : err_(err) {
    if (auto t = args.get("trace")) {
      trace_path_ = *t;
    } else if (const char* env = std::getenv("RSNSEC_TRACE");
               env != nullptr && *env != '\0') {
      trace_path_ = env;
    }
    metrics_ = args.has_flag("metrics");
    if (!trace_path_.empty() || metrics_) {
      session_.emplace();
      obs::TraceSession::set_active(&*session_);
    }
  }

  ~TraceScope() { obs::TraceSession::set_active(nullptr); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Called once on the success path, while the session is still active.
  void finish() {
    if (!session_) return;
    if (!trace_path_.empty()) {
      std::ofstream f = open_output(trace_path_);
      session_->write_chrome_trace(f);
    }
    if (metrics_) session_->write_summary_text(err_);
  }

 private:
  std::ostream& err_;
  std::string trace_path_;
  bool metrics_ = false;
  std::optional<obs::TraceSession> session_;
};

/// A command, the options it reads (tools/cli.hpp documents them) and
/// whether it takes positional arguments (lint's files, store's action).
struct Command {
  std::string_view name;
  int (*run)(const Args&, std::ostream&);
  OptionTable options;
  bool positionals = false;
};

/// `bench` reads the options of its experiment (bench_options).
const std::vector<Command>& commands() {
  static const std::vector<Command> all = {
      {"generate", cmd_generate,
       {{"benchmark", "scale", "seed", "out-rsn", "out-verilog", "out-spec"},
        {}}},
      {"info", cmd_info, {{"rsn", "icl", "top"}, {}}},
      {"analyze", cmd_analyze,
       {{"rsn", "icl", "top", "verilog", "spec", "store", "mode", "partition",
         "tile-spill-budget"},
        {"json", "structural", "no-ternary", "filter-baseline"}}},
      {"secure", cmd_secure,
       {{"rsn", "icl", "top", "verilog", "spec", "out", "store", "mode",
         "partition", "tile-spill-budget"},
        {"json", "structural", "no-ternary", "verify"}}},
      {"certify", cmd_certify,
       {{"rsn", "icl", "top", "verilog", "spec", "max-findings"},
        {"json", "no-ternary"}}},
      {"attack", cmd_attack,
       {{"benchmark", "seed", "scale", "target-ffs", "target-regs",
         "scenario", "conflict-limit"},
        {"json", "no-secure"}}},
      {"lint", cmd_lint, {{"top"}, {"json"}}, true},
      {"store", cmd_store, {{"store", "max-bytes"}, {"json"}}, true},
      {"serve", cmd_serve,
       {{"socket", "port", "workers", "queue-depth", "max-request-bytes",
         "store"},
        {}}},
      {"bench", cmd_bench, {}},
  };
  return all;
}

const Command& find_command(const std::string& name) {
  std::string known;
  for (const Command& c : commands()) {
    if (c.name == name) return c;
    known += (known.empty() ? "" : ", ") + std::string(c.name);
  }
  throw UsageError((name.empty() ? std::string("missing command")
                                 : "unknown command '" + name + "'") +
                   " (try: " + known + ")");
}

/// What every command takes besides its own table.
const OptionTable kCommonOptions = {{"jobs", "trace"}, {"metrics"}};

bool lists(const std::vector<std::string_view>& keys, std::string_view key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// "--a, --b, ..." for an error message.
std::string option_names(const OptionTable& t) {
  std::string names;
  for (const auto* keys : {&t.values, &t.flags})
    for (std::string_view k : *keys)
      names += (names.empty() ? "--" : ", --") + std::string(k);
  return names;
}

/// Splits argv by the command's option table. Every invocation mistake (no
/// or an unknown command or bench experiment, an option the command does
/// not read, an option without its value, a stray argument) is a
/// UsageError, raised before the command reads a file or starts a thread.
Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  args.command = argv.empty() ? "" : argv[0];
  const Command& cmd = find_command(args.command);
  const OptionTable* table = &cmd.options;
  std::string what = args.command;  // "analyze", "bench bridging"
  std::size_t i = 1;
  if (cmd.run == cmd_bench) {
    // The experiment comes first: its table says what follows.
    args.positionals.push_back(argv.size() > 1 ? argv[1] : "");
    table = &bench_options(args.positionals[0]);
    what += " " + args.positionals[0];
    i = 2;
  }
  for (; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) != 0) {
      if (!cmd.positionals)
        throw UsageError("unexpected argument '" + a + "'");
      args.positionals.push_back(a);
      continue;
    }
    std::string key = a.substr(2);
    if (lists(table->flags, key) || lists(kCommonOptions.flags, key)) {
      args.flags.push_back(key);
      continue;
    }
    if (!lists(table->values, key) && !lists(kCommonOptions.values, key))
      throw UsageError(what + " does not take " + a +
                       " (it takes " + option_names(*table) + ", " +
                       option_names(kCommonOptions) + ")");
    if (i + 1 >= argv.size())
      throw UsageError("option --" + key + " needs a value");
    // Duplicated value options are last-occurrence-wins by contract (the
    // map assignment overwrites): `rsnsec attack --seed 1 --seed 2` runs
    // with seed 2, matching what shell users expect from appended
    // overrides. Pinned by cli_tests DuplicateOptionLastOccurrenceWins.
    args.options[key] = argv[++i];
  }
  jobs_option(args);  // every command takes --jobs, read or not
  return args;
}

}  // namespace

int run(const std::vector<std::string>& args_in, std::ostream& out,
        std::ostream& err) {
  try {
    Args args = parse_args(args_in);
    TraceScope trace(args, err);
    int rc = find_command(args.command).run(args, out);
    trace.finish();
    return rc;
  } catch (const UsageError& e) {
    err << "rsnsec: " << e.what() << "\n";
    return 2;
  } catch (const security::SpecParseError& e) {
    // Malformed spec *input* is the caller's problem, like a usage
    // error; the message already carries the line number.
    err << "rsnsec: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "rsnsec: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rsnsec::cli
