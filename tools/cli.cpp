#include "tools/cli.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "util/minijson.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

#include "attack/engine.hpp"
#include "bench/common.hpp"
#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/redteam.hpp"
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
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"
#include "store/dep_cache.hpp"
#include "store/tile_spill.hpp"

namespace rsnsec::cli {

namespace {

/// Bad command-line *input* (malformed numbers, bad benchmark syntax).
/// Distinct from plain runtime_error so run() can exit 2 — "your
/// invocation is wrong" — instead of 1 ("the tool failed").
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;
  std::vector<std::string> positionals;

  bool has_flag(const std::string& f) const {
    for (const std::string& x : flags)
      if (x == f) return true;
    return false;
  }
  std::optional<std::string> get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
  std::string require(const std::string& key) const {
    auto v = get(key);
    if (!v) throw std::runtime_error("missing required option --" + key);
    return *v;
  }
};

Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  if (argv.empty()) throw std::runtime_error("missing command");
  args.command = argv[0];
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) != 0) {
      // Only `lint` (input files), `store` and `bench` (the action) take
      // positional arguments.
      if (args.command != "lint" && args.command != "store" &&
          args.command != "bench")
        throw std::runtime_error("unexpected argument '" + a + "'");
      args.positionals.push_back(a);
      continue;
    }
    std::string key = a.substr(2);
    // Boolean flags.
    if (key == "structural" || key == "json" || key == "no-pure" ||
        key == "no-hybrid" || key == "no-ternary" ||
        key == "filter-baseline" || key == "verify" || key == "metrics" ||
        key == "no-secure") {
      args.flags.push_back(key);
      continue;
    }
    if (i + 1 >= argv.size())
      throw std::runtime_error("option --" + key + " needs a value");
    // Duplicated value options are last-occurrence-wins by contract (the
    // map assignment overwrites): `rsnsec secure --seed 1 --seed 2` runs
    // with seed 2, matching what shell users expect from appended
    // overrides. Pinned by cli_tests DuplicateOptionLastOccurrenceWins.
    args.options[key] = argv[++i];
  }
  return args;
}

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

rsn::RsnDocument load_network(const Args& args) {
  if (auto p = args.get("rsn")) {
    std::ifstream f = open_input(*p);
    return rsn::read_rsn(f);
  }
  if (auto p = args.get("icl")) {
    std::ifstream f = open_input(*p);
    return rsn::icl::load_icl(f, args.get("top").value_or(""));
  }
  throw std::runtime_error("need --rsn FILE or --icl FILE");
}

Workload load_workload(const Args& args) {
  rsn::RsnDocument doc = load_network(args);
  std::ifstream verilog = open_input(args.require("verilog"));
  std::ifstream spec = open_input(args.require("spec"));
  return attach_design(std::move(doc), verilog, spec);
}

/// Guarded numeric parses: any malformed or overflowing number in the
/// invocation is a UsageError (exit 2) with the offending token quoted,
/// never an uncaught std::sto* exception.
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

/// Parses --jobs N. Without the flag, commands default to auto
/// (RSNSEC_JOBS, else hardware concurrency) — results are bit-identical
/// for any value, so parallelism is safe to default on. An explicit
/// `--jobs 0` is rejected: internally 0 encodes "auto", and accepting it
/// would silently turn a caller's attempt to say "no parallelism" into
/// "all cores" (say `--jobs 1` for serial, omit the flag for auto).
std::size_t jobs_option(const Args& args) {
  if (auto j = args.get("jobs")) {
    std::uint64_t n = u64_or_usage(*j, "--jobs");
    if (n == 0)
      throw UsageError(
          "--jobs needs a positive thread count (use --jobs 1 for serial "
          "execution, or omit the flag for auto)");
    return static_cast<std::size_t>(n);
  }
  return 0;
}

/// Resolves the artifact-store directory: the --store flag wins over the
/// RSNSEC_STORE environment variable (the same precedence --jobs has
/// over RSNSEC_JOBS). Empty string = no store, always recompute.
std::string store_dir(const Args& args) {
  if (auto s = args.get("store")) return *s;
  if (const char* env = std::getenv("RSNSEC_STORE");
      env != nullptr && *env != '\0')
    return env;
  return {};
}

/// Opens the artifact store of this invocation, or nullptr when neither
/// --store nor RSNSEC_STORE is set. Composes with every subcommand that
/// runs the dependency analysis (analyze, secure) and is the target of
/// the `store` maintenance subcommand.
std::unique_ptr<store::ArtifactStore> open_store(const Args& args) {
  std::string dir = store_dir(args);
  if (dir.empty()) return nullptr;
  return std::make_unique<store::ArtifactStore>(dir);
}

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
  if (args.has_flag("no-pure")) opt.run_pure = false;
  if (args.has_flag("no-hybrid")) opt.run_hybrid = false;
  // --verify turns on all three independent re-checks: the per-change
  // lint invariant pass, the final SAT-free certification and the
  // differential attack probe battery against the secured network.
  if (args.has_flag("verify")) {
    opt.verify_invariants = true;
    opt.verify_certify = true;
    opt.verify_attack = true;
  }
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
  opt.dep.num_threads = jobs_option(args);
  opt.resolve.num_threads = opt.dep.num_threads;
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
    throw std::runtime_error(
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
    if (name.rfind("MBIST_", 0) == 0) {
      std::vector<std::string> dims = split(name.substr(6), '_');
      if (dims.size() != 3)
        throw UsageError("MBIST benchmark must be MBIST_n_m_o");
      doc = benchgen::generate_mbist(
          static_cast<std::size_t>(u64_or_usage(dims[0], "MBIST dimension n")),
          static_cast<std::size_t>(u64_or_usage(dims[1], "MBIST dimension m")),
          static_cast<std::size_t>(u64_or_usage(dims[2], "MBIST dimension o")),
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
  Workload w = load_workload(args);
  std::unique_ptr<store::ArtifactStore> artifact_store = open_store(args);
  PipelineOptions popt = pipeline_options(args);
  std::unique_ptr<store::ArtifactSpillBackend> spill =
      wire_spill(popt, artifact_store.get());
  const AnalyzeResult result = analyze(w, popt.dep, artifact_store.get());
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
    security::TokenTable tokens(w.spec, w.spec.num_modules());
    security::AccessFilterBaseline filter(w.doc.network, w.spec, tokens);
    security::FilterReport fr = filter.analyze();
    out << "filter baseline would lock out " << fr.inaccessible.size()
        << " / " << w.doc.network.registers().size() << " registers\n";
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

/// Shared option parsing of `rsnsec attack` and `rsnsec bench attack`.
/// Every numeric argument goes through u64_or_usage / double_or_usage so a
/// malformed value exits 2, like the rest of the CLI.
struct AttackCliOptions {
  std::uint64_t seed = 1;
  benchgen::RedTeamOptions redteam;
  attack::AttackOptions engine;
};

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
  o.engine.num_threads = jobs_option(args);
  return o;
}

/// Validates a --benchmark name against the BASTION catalog; an unknown
/// family is the caller's mistake (exit 2), with the catalog listed.
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
      popt.dep.num_threads = o.engine.num_threads;
      popt.resolve.num_threads = o.engine.num_threads;
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

/// `rsnsec bench attack [--families CSV] --json`: wall-clock of the full
/// attack engine per BASTION family, in the google-benchmark JSON layout
/// the CI validator checks for every committed BENCH_*.json. Cross-checks
/// are off — this measures the attacks, not the analyses they are checked
/// against.
int cmd_bench_attack(const Args& args, std::ostream& out) {
  AttackCliOptions o = attack_cli_options(args);
  o.engine.cross_check = false;
  std::vector<std::string> names;
  if (auto f = args.get("families")) {
    for (const std::string& n : split(*f, ',')) {
      attack_benchmark(n);
      names.push_back(n);
    }
    if (names.empty()) throw UsageError("--families needs at least one name");
  } else {
    for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
      names.push_back(p.name);
  }

  if (!args.has_flag("json"))
    throw UsageError("bench attack only has a JSON report; pass --json");
  out << "{\"context\": {\"executable\": \"rsnsec\", \"experiment\": "
         "\"attack\", \"seed\": "
      << o.seed << "},\n\"benchmarks\": [";
  bool first = true;
  for (const std::string& name : names) {
    benchgen::RedTeamWorkload w =
        benchgen::make_redteam_workload(name, o.seed, o.redteam);
    for (const benchgen::RedTeamScenario& sc : w.scenarios) {
      attack::AttackReport rep =
          attack::run_attacks(w.circuit, w.doc.network, {sc}, o.engine);
      const attack::ScenarioResult& res = rep.scenarios.at(0);
      double seconds = 0.0;
      std::uint64_t sat_calls = 0;
      std::size_t recovered = 0, shifts = 0;
      for (const attack::AttackOutcome& oc : res.outcomes) {
        seconds += oc.seconds;
        sat_calls += oc.sat_calls;
        recovered += oc.recovered() ? 1 : 0;
        shifts += oc.differential.shifts;
      }
      out << (first ? "\n" : ",\n") << "  {\"name\": \"Attack_" << name
          << "/" << sc.name << "\", \"run_type\": \"iteration\", "
          << "\"iterations\": 1, \"real_time\": " << seconds * 1e3
          << ", \"cpu_time\": " << seconds * 1e3
          << ", \"time_unit\": \"ms\", \"recovered\": " << recovered
          << ", \"methods\": " << res.outcomes.size()
          << ", \"sat_calls\": " << sat_calls
          << ", \"replay_shifts\": " << shifts << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return 0;
}

/// `rsnsec bench scale --json [--max-ffs N] [--dense-max N]`: dependency-
/// analysis wall-clock and matrix footprint across MBIST sizes, tiled
/// representation vs. the dense oracle, in the google-benchmark JSON
/// layout the CI validator checks. Runs in DepMode::StructuralOnly so the
/// numbers measure the matrix machinery (construction, bridging, closure)
/// rather than the SAT portfolio in front of it; both representations
/// produce bit-identical matrices (pinned by the partitioned-oracle
/// tests), so the deltas are pure representation cost. The dense oracle is
/// only run up to --dense-max flip-flops — beyond that its quadratic
/// footprint is the problem this benchmark exists to demonstrate.
int cmd_bench_scale(const Args& args, std::ostream& out) {
  if (!args.has_flag("json"))
    throw UsageError("bench scale only has a JSON report; pass --json");
  const std::uint64_t seed =
      u64_or_usage(args.get("seed").value_or("1"), "--seed");
  const std::uint64_t max_ffs =
      u64_or_usage(args.get("max-ffs").value_or("100000"), "--max-ffs");
  const std::uint64_t dense_max =
      u64_or_usage(args.get("dense-max").value_or("10000"), "--dense-max");
  if (max_ffs == 0) throw UsageError("--max-ffs needs a positive FF count");
  const std::size_t jobs = jobs_option(args);

  // Decades of circuit flip-flops from 1000 up to --max-ffs.
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t s = 1000; s < max_ffs; s *= 10) sizes.push_back(s);
  sizes.push_back(max_ffs);

  struct ScaleRun {
    double analysis_ms = 0.0;
    double closure_ms = 0.0;
    std::uint64_t matrix_bytes = 0;
    std::uint64_t tiles_nonzero = 0;
    std::size_t regions = 0;
    std::size_t ffs = 0;
  };
  auto run_one = [&](const netlist::Netlist& circuit,
                     const rsn::Rsn& network, dep::PartitionMode mode) {
    dep::DepOptions dopt;
    dopt.mode = dep::DepMode::StructuralOnly;
    dopt.partition = mode;
    dopt.num_threads = jobs;
    dep::DependencyAnalyzer deps(circuit, network, dopt);
    deps.run();
    const dep::DepStats& s = deps.stats();
    ScaleRun r;
    r.analysis_ms = (s.t_one_cycle + s.t_bridge + s.t_closure) * 1e3;
    r.closure_ms = s.t_closure * 1e3;
    r.matrix_bytes = s.matrix_bytes;
    r.tiles_nonzero = s.tiles_nonzero;
    r.regions = s.regions;
    r.ffs = s.circuit_ffs;
    return r;
  };
  auto write_row = [&out](bool first, const std::string& variant,
                          const ScaleRun& r) {
    out << (first ? "\n" : ",\n") << "  {\"name\": \"Scale_MBIST/"
        << r.ffs << "/" << variant << "\", \"run_type\": \"iteration\", "
        << "\"iterations\": 1, \"real_time\": " << r.analysis_ms
        << ", \"cpu_time\": " << r.analysis_ms
        << ", \"time_unit\": \"ms\", \"closure_ms\": " << r.closure_ms
        << ", \"circuit_ffs\": " << r.ffs
        << ", \"matrix_bytes\": " << r.matrix_bytes
        << ", \"tiles_nonzero\": " << r.tiles_nonzero
        << ", \"regions\": " << r.regions;
  };

  out << "{\"context\": {\"executable\": \"rsnsec\", \"experiment\": "
         "\"scale\", \"seed\": "
      << seed << ", \"max_ffs\": " << max_ffs
      << ", \"dense_max\": " << dense_max << "},\n\"benchmarks\": [";
  bool first = true;
  for (std::uint64_t target : sizes) {
    // MBIST_n_4_4 has 5 + 383 n scan FFs and the random circuit attaches
    // ~0.85 circuit FFs per scan FF, so n ~ target / 325 lands the
    // *circuit* FF count (what the matrices are over) near the target.
    std::size_t n = static_cast<std::size_t>(target / 325);
    if (n == 0) n = 1;
    Rng rng(seed);
    rsn::RsnDocument doc = benchgen::generate_mbist(n, 4, 4, 1.0);
    netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);

    std::optional<ScaleRun> dense;
    if (static_cast<std::uint64_t>(circuit.ffs().size()) <= dense_max) {
      dense = run_one(circuit, doc.network, dep::PartitionMode::Dense);
      write_row(first, "dense", *dense);
      out << "}";
      first = false;
    }
    ScaleRun tiled = run_one(circuit, doc.network, dep::PartitionMode::Tiled);
    write_row(first, "tiled", tiled);
    if (dense) {
      // The headline pair: closure wall-clock speedup and matrix-memory
      // reduction of the tiled representation over the dense oracle at
      // the same size.
      out << ", \"closure_speedup_vs_dense\": "
          << (tiled.closure_ms > 0.0 ? dense->closure_ms / tiled.closure_ms
                                     : 0.0)
          << ", \"matrix_bytes_reduction_vs_dense\": "
          << (tiled.matrix_bytes > 0
                  ? static_cast<double>(dense->matrix_bytes) /
                        static_cast<double>(tiled.matrix_bytes)
                  : 0.0);
    }
    out << "}";
    first = false;
  }
  out << "\n]}\n";
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

/// Shared tuning knobs of `rsnsec serve` and `rsnsec bench serve`.
void serve_tuning(const Args& args, serve::ServerOptions& opt) {
  if (auto w = args.get("workers")) {
    std::uint64_t n = u64_or_usage(*w, "--workers");
    if (n == 0) throw UsageError("--workers needs a positive count");
    opt.workers = static_cast<std::size_t>(n);
  }
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

/// `rsnsec bench serve --json`: load generator against an in-process
/// daemon on a private unix socket. N client connections replay a mixed
/// stream (analyze of one fixed design + pings); the daemon gets a
/// temporary artifact store, so the first analyze publishes and the rest
/// warm-start — the replay measures daemon overhead (framing, admission,
/// scheduling), not repeated SAT work. Every analyze reply is compared
/// byte-for-byte against a one-shot run of the same design: concurrency
/// must not change results. Output is the google-benchmark JSON layout
/// the CI validator checks (p50/p99 latency, throughput, busy replies).
int cmd_bench_serve(const Args& args, std::ostream& out) {
  if (!args.has_flag("json"))
    throw UsageError("bench serve only has a JSON report; pass --json");
  const std::uint64_t seed =
      u64_or_usage(args.get("seed").value_or("1"), "--seed");
  const std::size_t clients = static_cast<std::size_t>(
      u64_or_usage(args.get("clients").value_or("4"), "--clients"));
  const std::size_t total_requests = static_cast<std::size_t>(
      u64_or_usage(args.get("requests").value_or("2000"), "--requests"));
  const std::string benchmark = args.get("benchmark").value_or("Mingle");
  attack_benchmark(benchmark);
  if (clients == 0) throw UsageError("--clients needs a positive count");
  if (total_requests == 0)
    throw UsageError("--requests needs a positive count");

  // One fixed workload, serialized to the inline payload strings the
  // protocol carries.
  Rng rng(seed);
  rsn::RsnDocument doc =
      benchgen::generate_bastion(benchgen::bastion_profile(benchmark),
                                 double_or_usage(
                                     args.get("scale").value_or("1.0"),
                                     "--scale"),
                                 rng);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  benchgen::SpecOptions spec_opt;
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), spec_opt, rng);
  std::string rsn_text, verilog_text, spec_text;
  {
    std::ostringstream os;
    rsn::write_rsn(os, doc.network, doc.module_names, &circuit);
    rsn_text = os.str();
  }
  {
    std::ostringstream os;
    netlist::verilog::write(os, circuit, doc.network.name());
    verilog_text = os.str();
  }
  {
    std::ostringstream os;
    security::write_spec(os, spec, doc.module_names);
    spec_text = os.str();
  }

  // Private daemon: temp store + temp unix socket, removed afterwards.
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("rsnsec-bench-serve-" + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  serve::ServiceOptions sopt;
  sopt.store_dir = (scratch / "store").string();
  sopt.analysis_threads = jobs_option(args);
  serve::AnalysisService service(sopt);

  serve::ServerOptions opt;
  opt.socket_path = (scratch / "daemon.sock").string();
  serve_tuning(args, opt);
  serve::Server server(service, opt);
  server.bind();
  std::thread server_thread([&server] { server.serve(); });

  // The one-shot reference result every analyze reply must match
  // byte-for-byte (same emitter the CLI's `analyze --json` uses).
  serve::Request ref;
  ref.command = serve::Command::Analyze;
  ref.rsn = rsn_text;
  ref.verilog = verilog_text;
  ref.spec = spec_text;
  serve::ExecResult expected = service.execute(ref);
  if (!expected.ok())
    throw std::runtime_error("bench serve: reference analyze failed: " +
                             expected.message);

  const std::string analyze_body =
      std::string("\"rsn\": \"") + json_escape(rsn_text) +
      "\", \"verilog\": \"" + json_escape(verilog_text) +
      "\", \"spec\": \"" + json_escape(spec_text) + "\"";

  struct ClientStats {
    std::vector<double> analyze_us;
    std::vector<double> ping_us;
    std::uint64_t busy = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t errors = 0;
  };
  std::vector<ClientStats> per_client(clients);

  auto client_fn = [&](std::size_t ci, std::size_t n_requests) {
    ClientStats& cs = per_client[ci];
    try {
      Socket sock = Socket::connect_unix(opt.socket_path);
      LineReader reader(sock, 4u << 20);
      for (std::size_t i = 0; i < n_requests; ++i) {
        const bool is_ping = i % 16 == 15;
        std::string line;
        if (is_ping) {
          line = "{\"command\": \"ping\", \"id\": \"" + std::to_string(i) +
                 "\", \"tenant\": \"client-" + std::to_string(ci) + "\"}\n";
        } else {
          line = "{\"command\": \"analyze\", \"id\": \"" +
                 std::to_string(i) + "\", \"tenant\": \"client-" +
                 std::to_string(ci) + "\", " + analyze_body + "}\n";
        }
        for (;;) {
          auto t0 = std::chrono::steady_clock::now();
          sock.write_all(line);
          std::optional<LineReader::Line> reply = reader.next();
          if (!reply || reply->oversize) {
            ++cs.errors;
            return;
          }
          double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
          JsonParseResult parsed = parse_json(reply->text);
          if (!parsed.ok() || !parsed.value->is_object()) {
            ++cs.errors;
            break;
          }
          std::optional<bool> ok = parsed.value->bool_field("ok");
          if (ok.value_or(false)) {
            (is_ping ? cs.ping_us : cs.analyze_us).push_back(us);
            if (!is_ping) {
              // Byte-identity: the "result" object must equal the
              // one-shot reference exactly.
              std::size_t begin = reply->text.find("\"result\": ");
              std::size_t end = reply->text.rfind(", \"server\": ");
              if (begin == std::string::npos || end == std::string::npos ||
                  reply->text.substr(begin + 10, end - begin - 10) !=
                      expected.result_json)
                ++cs.mismatches;
            }
            break;
          }
          // Error reply: back off and retry on SRV005, count anything
          // else as a hard error.
          const JsonValue* error = parsed.value->find("error");
          std::string code;
          std::uint64_t retry_ms = 5;
          if (error != nullptr && error->is_object()) {
            code = error->string_field("code").value_or("");
            if (auto r = error->number_field("retry_after_ms"))
              retry_ms = static_cast<std::uint64_t>(*r);
          }
          if (code != "SRV005") {
            ++cs.errors;
            break;
          }
          ++cs.busy;
          std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
        }
      }
    } catch (const SocketError&) {
      ++cs.errors;
    }
  };

  auto bench_t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t ci = 0; ci < clients; ++ci) {
    std::size_t share = total_requests / clients +
                        (ci < total_requests % clients ? 1 : 0);
    threads.emplace_back(client_fn, ci, share);
  }
  for (std::thread& t : threads) t.join();
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - bench_t0)
                      .count();

  // Cache effectiveness straight from the daemon, then shut it down.
  std::string store_stats = service.store_stats_json();
  server.request_stop();
  server_thread.join();
  std::filesystem::remove_all(scratch);

  std::vector<double> analyze_us, ping_us;
  std::uint64_t busy = 0, mismatches = 0, errors = 0;
  for (const ClientStats& cs : per_client) {
    analyze_us.insert(analyze_us.end(), cs.analyze_us.begin(),
                      cs.analyze_us.end());
    ping_us.insert(ping_us.end(), cs.ping_us.begin(), cs.ping_us.end());
    busy += cs.busy;
    mismatches += cs.mismatches;
    errors += cs.errors;
  }
  std::sort(analyze_us.begin(), analyze_us.end());
  std::sort(ping_us.begin(), ping_us.end());
  auto quantile = [](const std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::size_t i = static_cast<std::size_t>(q * (v.size() - 1));
    return v[i];
  };
  if (mismatches > 0)
    throw std::runtime_error(
        "bench serve: " + std::to_string(mismatches) +
        " analyze replies differ from the one-shot reference");
  if (errors > 0)
    throw std::runtime_error("bench serve: " + std::to_string(errors) +
                             " client(s) hit hard errors");

  const std::size_t served = analyze_us.size() + ping_us.size();
  out << "{\"context\": {\"executable\": \"rsnsec\", \"experiment\": "
         "\"serve\", \"seed\": "
      << seed << ", \"benchmark\": \"" << benchmark
      << "\", \"clients\": " << clients << ", \"requests\": " << served
      << ", \"workers\": " << opt.workers
      << ", \"queue_depth\": " << opt.queue_capacity
      << ", \"store\": " << store_stats << "},\n\"benchmarks\": [\n";
  out << "  {\"name\": \"ServeReplay_" << benchmark
      << "/analyze\", \"run_type\": \"iteration\", \"iterations\": "
      << analyze_us.size() << ", \"real_time\": "
      << quantile(analyze_us, 0.5) / 1e3 << ", \"cpu_time\": "
      << quantile(analyze_us, 0.5) / 1e3
      << ", \"time_unit\": \"ms\", \"p50_ms\": "
      << quantile(analyze_us, 0.5) / 1e3
      << ", \"p99_ms\": " << quantile(analyze_us, 0.99) / 1e3
      << ", \"busy_replies\": " << busy
      << ", \"result_mismatches\": " << mismatches << "},\n";
  out << "  {\"name\": \"ServeReplay_" << benchmark
      << "/ping\", \"run_type\": \"iteration\", \"iterations\": "
      << ping_us.size() << ", \"real_time\": "
      << quantile(ping_us, 0.5) / 1e3 << ", \"cpu_time\": "
      << quantile(ping_us, 0.5) / 1e3
      << ", \"time_unit\": \"ms\", \"p50_ms\": "
      << quantile(ping_us, 0.5) / 1e3
      << ", \"p99_ms\": " << quantile(ping_us, 0.99) / 1e3 << "},\n";
  out << "  {\"name\": \"ServeReplay_" << benchmark
      << "/throughput\", \"run_type\": \"iteration\", \"iterations\": "
      << served << ", \"real_time\": " << wall_s * 1e3
      << ", \"cpu_time\": " << wall_s * 1e3
      << ", \"time_unit\": \"ms\", \"requests_per_second\": "
      << (wall_s > 0.0 ? static_cast<double>(served) / wall_s : 0.0)
      << "}\n]}\n";
  return 0;
}

/// `rsnsec bench ablation`: the Sec. IV-C structural-vs-exact ablation as
/// a first-class subcommand. Reuses the bench harness's instance recipe
/// (bench::make_instance with the same seeds and scaling) so the reported
/// deltas are directly comparable with the committed EXPERIMENTS.md
/// tables and the paper's +61% / 6.21%.
int cmd_bench(const Args& args, std::ostream& out) {
  if (args.positionals.size() == 1 && args.positionals[0] == "attack")
    return cmd_bench_attack(args, out);
  if (args.positionals.size() == 1 && args.positionals[0] == "scale")
    return cmd_bench_scale(args, out);
  if (args.positionals.size() == 1 && args.positionals[0] == "serve")
    return cmd_bench_serve(args, out);
  if (args.positionals.size() != 1 || args.positionals[0] != "ablation")
    throw UsageError(
        (args.positionals.empty()
             ? std::string("bench needs an experiment name")
             : "unknown bench experiment '" + args.positionals[0] + "'") +
        " (try: ablation, attack, scale or serve, e.g. "
        "rsnsec bench ablation [--circuits N] [--specs N] [--json])");

  bench::SweepOptions opt = bench::sweep_options_from_env();
  if (auto c = args.get("circuits"))
    opt.circuits_per_benchmark =
        static_cast<int>(u64_or_usage(*c, "--circuits"));
  if (auto s = args.get("specs"))
    opt.specs_per_circuit = static_cast<int>(u64_or_usage(*s, "--specs"));
  opt.pipeline.dep.num_threads = jobs_option(args);

  const std::vector<std::string> names = {
      "BasicSCB", "Mingle",      "TreeFlat",    "TreeBalanced",
      "q12710",   "MBIST_1_5_5", "MBIST_2_5_5", "MBIST_5_5_5"};

  const bool json = args.has_flag("json");
  double total_exact = 0.0, total_struct = 0.0;
  int total_attempts = 0, total_false_insecure = 0;
  if (json)
    out << "{\"benchmarks\": [";
  else
    out << "Benchmark        exact_chg  struct_chg  extra[%]  "
           "false_insec[%]\n";

  bool first = true;
  for (const std::string& name : names) {
    double exact_changes = 0.0, struct_changes = 0.0;
    int false_insecure = 0, attempts = 0;
    for (int ci = 0; ci < opt.circuits_per_benchmark; ++ci) {
      bench::Instance inst = bench::make_instance(name, opt, ci);
      for (int si = 0; si < opt.specs_per_circuit; ++si) {
        Rng spec_rng(opt.base_seed * 104729 +
                     static_cast<std::uint64_t>(ci) * 1000 +
                     static_cast<std::uint64_t>(si));
        security::SecuritySpec spec = benchgen::random_spec(
            inst.doc.module_names.size(), opt.spec, spec_rng);

        rsn::Rsn net_exact = inst.doc.network;
        PipelineOptions pe = opt.pipeline;
        SecureFlowTool exact(inst.circuit, net_exact, spec, pe);
        PipelineResult re = exact.run();
        if (!re.static_report.clean()) continue;  // genuinely insecure
        ++attempts;
        if (re.initial_violating_registers == 0) continue;

        rsn::Rsn net_struct = inst.doc.network;
        PipelineOptions po = opt.pipeline;
        po.dep.mode = dep::DepMode::StructuralOnly;
        SecureFlowTool over(inst.circuit, net_struct, spec, po);
        PipelineResult ro = over.run();
        if (!ro.static_report.clean()) {
          // The exact analysis proved the logic secure; the structural
          // over-approximation disagrees: a false insecure classification.
          ++false_insecure;
          continue;
        }
        exact_changes += re.total_changes();
        struct_changes += ro.total_changes();
      }
    }
    double extra =
        exact_changes > 0
            ? 100.0 * (struct_changes - exact_changes) / exact_changes
            : 0.0;
    double false_pct = attempts > 0 ? 100.0 * false_insecure / attempts : 0.0;
    if (json) {
      out << (first ? "\n" : ",\n") << "  {\"name\": \"" << name
          << "\", \"exact_changes\": " << exact_changes
          << ", \"structural_changes\": " << struct_changes
          << ", \"extra_changes_pct\": " << extra
          << ", \"false_insecure_pct\": " << false_pct
          << ", \"attempts\": " << attempts << "}";
      first = false;
    } else {
      std::ostringstream row;
      row << std::left << std::setw(16) << name << std::right << std::fixed
          << std::setprecision(1) << std::setw(10) << exact_changes
          << std::setw(12) << struct_changes << std::setw(10) << extra
          << std::setw(16) << false_pct;
      out << row.str() << "\n";
    }
    total_exact += exact_changes;
    total_struct += struct_changes;
    total_attempts += attempts;
    total_false_insecure += false_insecure;
  }

  double overall_extra =
      total_exact > 0 ? 100.0 * (total_struct - total_exact) / total_exact
                      : 0.0;
  double overall_false =
      total_attempts > 0 ? 100.0 * total_false_insecure / total_attempts
                         : 0.0;
  if (json) {
    out << "\n], \"overall_extra_changes_pct\": " << overall_extra
        << ", \"overall_false_insecure_pct\": " << overall_false
        << ", \"paper_extra_changes_pct\": 61.0"
        << ", \"paper_false_insecure_pct\": 6.21}\n";
  } else {
    std::ostringstream sum;
    sum << std::fixed << std::setprecision(1)
        << "\nOverall additional changes with structural "
           "over-approximation: "
        << overall_extra << "%   (paper: +61% on average)\n"
        << std::setprecision(2)
        << "Falsely classified as insecure circuit logic: " << overall_false
        << "% of runs   (paper: 6.21% of investigated benchmarks)\n";
    out << sum.str();
  }
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

int dispatch(const Args& args, std::ostream& out) {
  if (args.command == "generate") return cmd_generate(args, out);
  if (args.command == "info") return cmd_info(args, out);
  if (args.command == "analyze") return cmd_analyze(args, out);
  if (args.command == "secure") return cmd_secure(args, out);
  if (args.command == "certify") return cmd_certify(args, out);
  if (args.command == "attack") return cmd_attack(args, out);
  if (args.command == "lint") return cmd_lint(args, out);
  if (args.command == "store") return cmd_store(args, out);
  if (args.command == "bench") return cmd_bench(args, out);
  if (args.command == "serve") return cmd_serve(args, out);
  throw std::runtime_error("unknown command '" + args.command +
                           "' (try: generate, info, analyze, secure, "
                           "certify, attack, lint, store, bench, serve)");
}

}  // namespace

int run(const std::vector<std::string>& args_in, std::ostream& out,
        std::ostream& err) {
  try {
    Args args = parse_args(args_in);
    TraceScope trace(args, err);
    int rc = dispatch(args, out);
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
