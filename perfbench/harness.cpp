// In-process half of the end-to-end benchmark (see README.md). run.py
// drives it; every subcommand prints one JSON object of raw samples on
// stdout, and run.py turns those into metrics and checks.
//
//   perfbench_harness build-info
//   perfbench_harness gen-mbist --seed S --out DIR
//   perfbench_harness replica --dir DIR --work DIR --jobs J --trace-out F
//   perfbench_harness sweep --seed S --seconds T [--traced 1 --trace-out F]
//   perfbench_harness serve --seed S --seconds T --work DIR [--traced 1 ...]
//   perfbench_harness serve-inputs --seed S
//
// The workloads' parameters are the constants below; only the seed, the
// length of a run and where files go are options. How often a run repeats
// its work follows from --seconds alone, never from how fast the work
// went, so a faster program is measured on the same inputs.
//
// Spans are recorded only here, around each call the benchmark makes into
// a layer's public function; the span name's prefix is the layer.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "core/report.hpp"
#include "core/tool.hpp"
#include "flow/certify.hpp"
#include "netlist/verilog.hpp"
#include "obs/trace.hpp"
#include "rsn/access.hpp"
#include "rsn/io.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec_io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"
#include "store/dep_cache.hpp"
#include "util/minijson.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Set-ups per measurement (odd, so the median is one of them).
constexpr int kSetups = 9;

// table1_sweep: Table I grids on a pool of kSweepJobs threads (below nproc
// on the 4-core host; at 4 threads the grid time spread by 30%). A run
// makes one grid per kGridSeconds of --seconds, the grid's wall-clock on
// that host.
constexpr std::size_t kSweepJobs = 2;
constexpr double kGridSeconds = 10.0;

// cli_mbist: MBIST_<kMbistCores>_4_4 with a fixed policy (fixed_policy),
// generated kMbistSetups times per design.
constexpr std::size_t kMbistCores = 100;
constexpr int kMbistSetups = 3;
constexpr std::uint64_t kPolicySeed = 21;
constexpr std::size_t kSensitiveModules = 1;
constexpr std::size_t kLowTrustModules = 30;

// cli_mbist traced run: rounds of the replica (warm-up, untraced, traced).
constexpr int kReplicaRounds = 3;

// serve_open: daemon shape, open-loop rate and the max-rate ladder. The
// rate is half the daemon's capacity on the 4-core development host: two
// workers at a median warm `analyze` service time of 5-6.6 ms serve about
// 340 analyze/s, or 390 req/s in this mix (README.md gives the ladder that
// measured it). At half load a request sometimes queues behind another but
// the backlog does not grow.
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeJobs = 1;
constexpr std::size_t kServeConns = 2;
constexpr double kServeRate = 200.0;
constexpr double kStepSeconds = 2.0;
const std::vector<double> kLadder = {100.0, 200.0, 300.0, 400.0};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `--key value` options of one subcommand.
class Options {
 public:
  Options(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0)
        throw std::runtime_error("expected --option, got '" + key + "'");
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end())
      throw std::runtime_error("missing option --" + key);
    return it->second;
  }
  std::uint64_t seed() const { return std::stoull(require("seed")); }
  double seconds() const { return std::stod(require("seconds")); }
  bool traced() const { return str("traced", "0") != "0"; }

 private:
  std::map<std::string, std::string> values_;
};

/// Runs `fn` inside a span named `name` on the ambient session (a plain
/// call when tracing is off) and returns its result.
template <typename Fn>
auto in_span(const char* name, Fn&& fn) {
  obs::Span span(obs::TraceSession::active(), name);
  return fn();
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

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f = open_output(path);
  f << text;
}

/// JSON list of numbers with full precision.
std::string json_list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(9);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

// ---------------------------------------------------------------------------
// build-info

int cmd_build_info() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::cout << "{\"optimized\": " << (optimized ? "true" : "false")
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << json_escape(__VERSION__) << "\"}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// output check of a secured network

enum class Verdict : std::uint8_t { Certified, ExactlyClean, Violating };

/// The SAT-free certifier over-approximates the pipeline's exact analysis,
/// so a network it cannot certify may still be secure. Such a network is
/// re-analysed exactly (dependency analysis, static check, violating
/// pairs); only a violation found there fails the check.
Verdict check_secured(const netlist::Netlist& circuit,
                      const rsn::Rsn& network,
                      const security::SecuritySpec& spec) {
  if (in_span("flow.certify", [&] {
        return flow::certify(circuit, network, spec).certified();
      }))
    return Verdict::Certified;
  return in_span("flow.exact_recheck", [&] {
    dep::DepOptions dopt;
    dopt.num_threads = 1;
    dep::DependencyAnalyzer deps(circuit, network, dopt);
    deps.run();
    security::TokenTable tokens(spec, spec.num_modules());
    security::HybridAnalyzer hybrid(circuit, network, deps, spec, tokens);
    const bool clean = hybrid.check_static().clean() &&
                       hybrid.count_violating_pairs(network) == 0;
    return clean ? Verdict::ExactlyClean : Verdict::Violating;
  });
}

// ---------------------------------------------------------------------------
// gen-mbist: the cli_mbist design

/// Seed-independent policy over `num_modules` modules: `sensitive` modules
/// whose data only trust categories 2 and 3 may see, and `low_trust`
/// modules of a random lower category. The circuit varies with the
/// workload seed and the policy does not, so the amount of resolution work
/// `secure` does stays comparable between seeds.
security::SecuritySpec fixed_policy(std::size_t num_modules) {
  security::SecuritySpec spec(num_modules, 4);
  std::vector<std::size_t> order(num_modules);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(kPolicySeed);
  rng.shuffle(order);
  const std::size_t sensitive = std::min(kSensitiveModules, num_modules);
  const std::size_t low_trust =
      std::min(kLowTrustModules, num_modules - sensitive);
  for (std::size_t i = 0; i < sensitive; ++i)
    spec.set_policy(static_cast<netlist::ModuleId>(order[i]), 3,
                    (1u << 2) | (1u << 3));
  for (std::size_t i = sensitive; i < sensitive + low_trust; ++i)
    spec.set_policy(static_cast<netlist::ModuleId>(order[i]),
                    static_cast<security::TrustCategory>(rng.below(3)), 0xFu);
  return spec;
}

/// The design's three files, generated from `seed`.
std::array<std::string, 3> mbist_files(std::uint64_t seed) {
  Rng rng(seed);
  rsn::RsnDocument doc = benchgen::generate_mbist(kMbistCores, 4, 4, 1.0);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  security::SecuritySpec spec = fixed_policy(doc.module_names.size());
  std::ostringstream rsn_os, v_os, spec_os;
  rsn::write_rsn(rsn_os, doc.network, doc.module_names, &circuit);
  netlist::verilog::write(v_os, circuit, doc.network.name());
  security::write_spec(spec_os, spec, doc.module_names);
  return {rsn_os.str(), v_os.str(), spec_os.str()};
}

/// Generates and writes the design kMbistSetups times, timing each set-up
/// in process; every generation must give the same bytes.
int cmd_gen_mbist(const Options& o) {
  const std::uint64_t seed = o.seed();
  const std::string out = o.require("out");
  fs::create_directories(out);
  const std::array<const char*, 3> names = {"/design.rsn", "/design.v",
                                            "/design.spec"};
  std::vector<double> setup_s;
  std::array<std::string, 3> first;
  for (int s = 0; s < kMbistSetups; ++s) {
    auto t0 = Clock::now();
    std::array<std::string, 3> files = mbist_files(seed);
    for (std::size_t i = 0; i < files.size(); ++i)
      write_file(out + names[i], files[i]);
    setup_s.push_back(since(t0));
    if (s == 0) first = std::move(files);
    else if (files != first)
      throw std::runtime_error("design generation is not deterministic");
  }
  std::cout << "{\"setup_s\": " << json_list(setup_s) << "}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// replica: in-process copy of the CLI's info / analyze / secure bodies

struct Design {
  std::string rsn, verilog, spec;
};

struct Loaded {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  security::SecuritySpec spec{1, 1};
};

/// Same calls, same order as the CLI's load_workload.
Loaded replica_load(const Design& d) {
  Loaded w;
  w.doc = in_span("rsn.read", [&] {
    std::ifstream f = open_input(d.rsn);
    return rsn::read_rsn(f);
  });
  {
    std::ifstream f = open_input(d.verilog);
    netlist::verilog::ParsedCircuit parsed =
        in_span("netlist.parse", [&] { return netlist::verilog::parse(f); });
    in_span("rsn.attach",
            [&] { rsn::apply_attachments(w.doc, parsed.nets); });
    w.circuit = std::move(parsed.netlist);
  }
  std::ifstream f = open_input(d.spec);
  w.spec = in_span("security.spec_read", [&] {
    return security::read_spec(f, w.doc.module_names);
  });
  return w;
}

std::unique_ptr<store::ArtifactStore> replica_store(const std::string& dir) {
  return in_span("store.open",
                 [&] { return std::make_unique<store::ArtifactStore>(dir); });
}

/// `rsnsec info --rsn R`.
std::string replica_info(const Design& d) {
  obs::Span root(obs::TraceSession::active(), "cli.info");
  rsn::RsnDocument doc = in_span("rsn.read", [&] {
    std::ifstream f = open_input(d.rsn);
    return rsn::read_rsn(f);
  });
  std::ostringstream out;
  in_span("rsn.validate", [&] {
    out << rsn::summarize(doc.network) << "\n";
    out << "modules: " << doc.module_names.size() << "\n";
    std::string err;
    out << "valid: "
        << (doc.network.validate(&err) ? "yes" : "no (" + err + ")") << "\n";
  });
  std::size_t accessible = in_span("rsn.access", [&] {
    rsn::AccessPlanner planner(doc.network);
    std::size_t n = 0;
    for (rsn::ElemId r : doc.network.registers())
      n += planner.plan(r).has_value();
    return n;
  });
  in_span("core.report", [&] {
    out << "accessible registers: " << accessible << " / "
        << doc.network.registers().size() << "\n";
  });
  return out.str();
}

struct AnalyzeOut {
  std::string json;
  bool cache_hit = false;
  dep::DepStats dep_stats;
};

/// `rsnsec analyze --json --jobs J --store S`.
AnalyzeOut replica_analyze(const Design& d, const std::string& store_dir,
                           std::size_t jobs) {
  obs::Span root(obs::TraceSession::active(), "cli.analyze");
  Loaded w = replica_load(d);
  security::TokenTable tokens(w.spec, w.spec.num_modules());
  std::unique_ptr<store::ArtifactStore> st = replica_store(store_dir);
  PipelineOptions popt;
  popt.dep.num_threads = jobs;
  popt.resolve.num_threads = jobs;
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, popt.dep);
  AnalyzeOut r;
  r.cache_hit = in_span("store.run_with_store",
                        [&] { return store::run_with_store(st.get(), deps); });
  std::optional<security::HybridAnalyzer> hybrid;
  in_span("security.hybrid_build", [&] {
    hybrid.emplace(w.circuit, w.doc.network, deps, w.spec, tokens);
  });
  security::PureScanAnalyzer pure(w.spec, tokens);
  security::StaticReport st_rep =
      in_span("security.check_static", [&] { return hybrid->check_static(); });
  AnalyzeReport rep;
  in_span("security.count_pairs", [&] {
    rep.pure_violating_pairs = pure.count_violating_pairs(w.doc.network);
    rep.hybrid_violating_pairs = hybrid->count_violating_pairs(w.doc.network);
  });
  rep.violating_registers = in_span("security.count_registers", [&] {
    return hybrid->count_violating_registers(w.doc.network);
  });
  std::ostringstream out;
  in_span("core.report", [&] {
    rep.insecure_logic = st_rep.insecure_logic;
    rep.intra_segment = st_rep.intra_segment;
    rep.dep_mode = deps.options().mode;
    rep.dep_ternary_prefilter = deps.options().ternary_prefilter;
    rep.dep_partition = deps.options().partition;
    rep.dep_tiled = deps.tiled();
    rep.dep_stats = deps.stats();
    write_analyze_json(out, rep);
    out << "\n";
  });
  r.json = out.str();
  r.dep_stats = deps.stats();
  return r;
}

struct SecureOut {
  std::string text;
  std::string secured_rsn;
  PipelineResult result;
  bool clean = false;  ///< passed check_secured
  double certify_s = 0.0;
};

/// `rsnsec secure --jobs J --store S --out F`, then the output check
/// (`rsnsec certify` of the secured network) outside the command's span.
SecureOut replica_secure(const Design& d, const std::string& store_dir,
                         std::size_t jobs) {
  SecureOut r;
  obs::Span root(obs::TraceSession::active(), "cli.secure");
  Loaded w = replica_load(d);
  std::unique_ptr<store::ArtifactStore> st = replica_store(store_dir);
  PipelineOptions opt;
  opt.dep.num_threads = jobs;
  opt.resolve.num_threads = jobs;
  opt.store = st.get();
  SecureFlowTool tool(w.circuit, w.doc.network, w.spec, opt);
  r.result = in_span("core.secure_flow", [&] { return tool.run(); });
  std::ostringstream out;
  in_span("core.report", [&] {
    out << "secured: " << (r.result.secured ? "yes" : "no") << "\n";
    out << "violating registers before: "
        << r.result.initial_violating_registers << "\n";
    out << "applied changes: " << r.result.pure.applied_changes << " pure + "
        << r.result.hybrid.applied_changes << " hybrid\n";
    for (const security::AppliedChange& c : r.result.changes)
      out << "  - " << c.note << "\n";
  });
  r.text = out.str();
  if (r.result.secured) {
    r.secured_rsn = in_span("rsn.write", [&] {
      std::ostringstream os;
      rsn::write_rsn(os, w.doc.network, w.doc.module_names, &w.circuit);
      return os.str();
    });
  }
  root.close();
  auto t0 = Clock::now();
  r.clean = !r.result.secured ||
            check_secured(w.circuit, w.doc.network, w.spec) !=
                Verdict::Violating;
  r.certify_s = since(t0);
  return r;
}

/// Rounds of the info -> cold analyze -> warm analyze -> secure sequence,
/// alternating untraced and traced; the trace covers the traced rounds.
/// `--jobs` is the CLI's `--jobs` being replicated.
int cmd_replica(const Options& o) {
  const std::string dir = o.require("dir");
  const std::string work = o.require("work");
  const std::string trace_out = o.str("trace-out", "");
  const auto jobs = static_cast<std::size_t>(std::stoull(o.require("jobs")));
  const Design d{dir + "/design.rsn", dir + "/design.v", dir + "/design.spec"};
  const std::string store_dir = work + "/replica-store";
  fs::create_directories(work);

  obs::TraceSession session;
  std::ostringstream rounds;
  std::string first_analyze, first_info, first_secure_text, first_secured;
  std::size_t mismatches = 0, violating = 0;
  // Round 0 warms caches and is reported but not used for timing.
  for (int round = 0; round < kReplicaRounds; ++round) {
    const bool traced = round % 2 == 1;
    obs::TraceSession::set_active(traced ? &session : nullptr);
    fs::remove_all(store_dir);
    auto t0 = Clock::now();
    std::string info = replica_info(d);
    const double info_s = since(t0);
    t0 = Clock::now();
    AnalyzeOut cold = replica_analyze(d, store_dir, jobs);
    const double cold_s = since(t0);
    t0 = Clock::now();
    AnalyzeOut warm = replica_analyze(d, store_dir, jobs);
    const double warm_s = since(t0);
    t0 = Clock::now();
    SecureOut sec = replica_secure(d, store_dir, jobs);
    const double secure_s = since(t0) - sec.certify_s;
    obs::TraceSession::set_active(nullptr);

    if (round == 0) {
      first_info = info;
      first_analyze = cold.json;
      first_secure_text = sec.text;
      first_secured = sec.secured_rsn;
    }
    mismatches += (cold.json != first_analyze) + (warm.json != first_analyze) +
                  (info != first_info) + (sec.text != first_secure_text) +
                  (sec.secured_rsn != first_secured);
    violating += sec.clean ? 0 : 1;
    store::ArtifactStore st(store_dir);
    const dep::DepStats& ds = cold.dep_stats;
    const PipelineResult& pr = sec.result;
    rounds << (round ? ",\n  " : "\n  ") << "{\"warmup\": "
           << (round == 0 ? "true" : "false") << ", \"traced\": "
           << (traced ? "true" : "false") << ", \"info_s\": " << info_s
           << ", \"analyze_cold_s\": " << cold_s
           << ", \"analyze_warm_s\": " << warm_s
           << ", \"secure_s\": " << secure_s
           << ", \"certify_s\": " << sec.certify_s
           << ", \"cold_hit\": " << (cold.cache_hit ? "true" : "false")
           << ", \"warm_hit\": " << (warm.cache_hit ? "true" : "false")
           << ", \"store_bytes\": " << st.disk_stats().bytes
           << ", \"dep\": {\"sat_calls\": " << ds.sat_calls
           << ", \"sim_resolved\": " << ds.sim_resolved
           << ", \"ternary_resolved\": " << ds.ternary_resolved
           << ", \"cone_cache_hits\": " << ds.cone_cache_hits
           << ", \"solver_conflicts\": " << ds.solver_conflicts
           << ", \"matrix_bytes\": " << ds.matrix_bytes << "}"
           << ", \"t_pure\": " << pr.t_pure << ", \"t_hybrid\": "
           << pr.t_hybrid << ", \"changes\": " << pr.total_changes()
           << ", \"secured\": " << (pr.secured ? "true" : "false") << "}";
  }
  fs::remove_all(store_dir);
  write_file(work + "/info.txt", first_info);
  write_file(work + "/analyze.json", first_analyze);
  write_file(work + "/secure.txt", first_secure_text);
  write_file(work + "/secured.rsn", first_secured);
  if (!trace_out.empty()) {
    std::ofstream f = open_output(trace_out);
    session.write_chrome_trace(f);
  }
  std::cout.precision(9);
  std::cout << "{\"rounds\": [" << rounds.str() << "\n], \"mismatches\": "
            << mismatches << ", \"violating\": " << violating << "}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// sweep: the paper's Table I grid over the 13 BASTION families

/// The Table I harness's defaults (bench::sweep_options_from_env without
/// the environment): 3 circuits x 6 specs, 400 FFs, 48 registers.
bench::SweepOptions grid_options(std::uint64_t base_seed) {
  bench::SweepOptions opt;
  opt.base_seed = base_seed;
  opt.spec.expected_sensitive_modules = 2.5;
  opt.spec.low_trust_prob = 0.1;
  return opt;
}

/// One (circuit, spec) run of the grid, prepared during set-up.
struct GridRun {
  std::size_t family = 0;
  std::size_t instance = 0;
  security::SecuritySpec spec{1, 1};
  rsn::Rsn network{"rsn"};
  PipelineResult result;
  double seconds = 0.0;
};

struct Grid {
  std::vector<bench::Instance> instances;  // family-major, circuit-minor
  std::vector<GridRun> runs;               // family-major
};

/// Circuits follow `opt.base_seed`; the specifications are the Table I
/// harness's own (its default base seed 1) for every grid. With specs drawn
/// per seed, the number of (circuit, spec) runs that need resolution — and
/// with it the grid's run time — varied by a third between seeds.
constexpr std::uint64_t kSpecBaseSeed = 1;

Grid make_grid(const std::vector<std::string>& families,
               const bench::SweepOptions& opt) {
  Grid g;
  const auto circuits = static_cast<std::size_t>(opt.circuits_per_benchmark);
  const auto specs = static_cast<std::size_t>(opt.specs_per_circuit);
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (std::size_t ci = 0; ci < circuits; ++ci)
      g.instances.push_back(
          bench::make_instance(families[f], opt, static_cast<int>(ci)));
    for (std::size_t ci = 0; ci < circuits; ++ci) {
      for (std::size_t si = 0; si < specs; ++si) {
        const bench::Instance& inst = g.instances[f * circuits + ci];
        // bench::run_benchmark's spec stream.
        Rng spec_rng(kSpecBaseSeed * 104729 + ci * 1000 + si);
        GridRun run;
        run.family = f;
        run.instance = f * circuits + ci;
        run.spec = benchgen::random_spec(inst.doc.module_names.size(),
                                         opt.spec, spec_rng);
        run.network = inst.doc.network;
        g.runs.push_back(std::move(run));
      }
    }
  }
  return g;
}

int cmd_sweep(const Options& o) {
  const std::uint64_t seed = o.seed();
  const double seconds = o.seconds();
  const bool traced = o.traced();
  const std::string trace_out = o.str("trace-out", "");
  std::vector<std::string> families;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
    families.push_back(p.name);

  ThreadPool pool(kSweepJobs);
  PipelineOptions popt;
  popt.dep.num_threads = 1;
  popt.resolve.num_threads = 1;

  obs::TraceSession session;
  std::ostringstream grids;
  // Grid k of the run draws its circuits from base seed 1000 seed + k; the
  // grid time depends on the circuits (FlexScan's above all), so a run
  // covers several. Traced runs time each grid twice, untraced then
  // traced, so the tracing overhead is measured on identical inputs, and
  // make half as many grids.
  const int passes = traced ? 2 : 1;
  const long grid_count = std::max(
      1L, static_cast<long>(std::floor(seconds / (kGridSeconds * passes))));
  for (long k = 0; k < grid_count; ++k) {
    const std::uint64_t base_seed = seed * 1000 + static_cast<std::uint64_t>(k);
    const bench::SweepOptions opt = grid_options(base_seed);
    for (int pass = 0; pass < passes; ++pass) {
      const bool trace_pass = pass == 1;
      // Set-up is short, so it is repeated; run.py keeps the median.
      std::vector<double> setup_s;
      Grid g;
      for (int s = 0; s < kSetups; ++s) {
        auto t0 = Clock::now();
        g = make_grid(families, opt);
        setup_s.push_back(since(t0));
      }

      obs::TraceSession::set_active(trace_pass ? &session : nullptr);
      std::vector<double> family_s(families.size(), 0.0);
      const std::size_t per_family = g.runs.size() / families.size();
      auto t_grid = Clock::now();
      for (std::size_t f = 0; f < families.size(); ++f) {
        const std::string span_name = "table1." + families[f];
        obs::Span fspan(obs::TraceSession::active(), span_name);
        auto tf = Clock::now();
        pool.parallel_for(
            f * per_family, (f + 1) * per_family,
            [&](std::size_t i) {
              GridRun& run = g.runs[i];
              const bench::Instance& inst = g.instances[run.instance];
              auto tr = Clock::now();
              run.result = in_span("core.secure_flow", [&] {
                SecureFlowTool tool(inst.circuit, run.network, run.spec,
                                    popt);
                return tool.run();
              });
              run.seconds = since(tr);
            },
            /*grain=*/1);
        family_s[f] = since(tf);
      }
      const double wall_s = since(t_grid);

      // Output check, outside the timed grid: every secured network must
      // pass the independent SAT-free certifier.
      auto t_cert = Clock::now();
      std::size_t secured = 0, uncertified = 0, violating = 0;
      for (GridRun& run : g.runs) {
        if (!run.result.secured) continue;
        ++secured;
        const bench::Instance& inst = g.instances[run.instance];
        switch (check_secured(inst.circuit, run.network, run.spec)) {
          case Verdict::Certified:
            break;
          case Verdict::ExactlyClean:
            ++uncertified;
            break;
          case Verdict::Violating:
            ++violating;
            std::cerr << "violating: " << families[run.family] << " grid "
                      << base_seed << " run " << &run - g.runs.data()
                      << "\n";
            break;
        }
      }
      const double certify_s = since(t_cert);
      obs::TraceSession::set_active(nullptr);

      std::vector<double> changes(families.size(), 0.0);
      double run_s = 0.0, t_dep = 0.0, t_pure = 0.0, t_hybrid = 0.0;
      double sat_calls = 0, sim_resolved = 0, ternary_resolved = 0,
             cone_cache_hits = 0, solver_conflicts = 0, matrix_bytes = 0,
             one_cycle = 0, bridge = 0, closure = 0;
      for (const GridRun& run : g.runs) {
        const PipelineResult& r = run.result;
        run_s += run.seconds;
        changes[run.family] += r.total_changes();
        t_dep += r.t_dependency;
        t_pure += r.t_pure;
        t_hybrid += r.t_hybrid;
        const dep::DepStats& ds = r.dep_stats;
        sat_calls += static_cast<double>(ds.sat_calls);
        sim_resolved += static_cast<double>(ds.sim_resolved);
        ternary_resolved += static_cast<double>(ds.ternary_resolved);
        cone_cache_hits += static_cast<double>(ds.cone_cache_hits);
        solver_conflicts += static_cast<double>(ds.solver_conflicts);
        matrix_bytes = std::max(matrix_bytes,
                                static_cast<double>(ds.matrix_bytes));
        one_cycle += ds.t_one_cycle;
        bridge += ds.t_bridge;
        closure += ds.t_closure;
      }
      grids.precision(9);
      grids << (grids.tellp() > 0 ? ",\n  " : "\n  ") << "{\"base_seed\": "
            << base_seed << ", \"traced\": "
            << (trace_pass ? "true" : "false") << ", \"setup_s\": "
            << json_list(setup_s) << ", \"wall_s\": " << wall_s
            << ", \"run_s\": " << run_s << ", \"certify_s\": " << certify_s
            << ", \"secured\": " << secured
            << ", \"uncertified\": " << uncertified
            << ", \"violating\": " << violating
            << ", \"runs\": " << g.runs.size()
            << ", \"family_s\": " << json_list(family_s)
            << ", \"changes\": " << json_list(changes)
            << ", \"t_dep\": " << t_dep << ", \"t_pure\": " << t_pure
            << ", \"t_hybrid\": " << t_hybrid
            << ", \"t_one_cycle\": " << one_cycle
            << ", \"t_bridge\": " << bridge << ", \"t_closure\": " << closure
            << ", \"sat_calls\": " << sat_calls
            << ", \"sim_resolved\": " << sim_resolved
            << ", \"ternary_resolved\": " << ternary_resolved
            << ", \"cone_cache_hits\": " << cone_cache_hits
            << ", \"solver_conflicts\": " << solver_conflicts
            << ", \"matrix_bytes\": " << matrix_bytes << "}";
    }
  }
  if (!trace_out.empty()) {
    std::ofstream f = open_output(trace_out);
    session.write_chrome_trace(f);
  }
  std::cout << "{\"jobs\": " << kSweepJobs << ", \"families\": [";
  for (std::size_t f = 0; f < families.size(); ++f)
    std::cout << (f ? ", " : "") << '"' << families[f] << '"';
  std::cout << "], \"grids\": [" << grids.str() << "\n]}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// serve: open-loop load against an in-process daemon

/// The eight serve_open designs: BASTION families at the Table I repro
/// scale, one circuit each.
const std::vector<std::string>& serve_families() {
  static const std::vector<std::string> names = {
      "BasicSCB", "Mingle",       "TreeFlat", "TreeFlatEx",
      "q12710",   "TreeBalanced", "p22810",   "p93791"};
  return names;
}

enum class Kind : std::uint8_t { Analyze, Ping, Stats };

struct Arrival {
  double due_s = 0.0;
  Kind kind = Kind::Analyze;
  std::size_t design = 0;
};

struct Outcome {
  double send_s = -1.0;
  double reply_s = -1.0;
  bool ok = false;
  bool busy = false;
  bool mismatch = false;
  bool cache_hit = false;
  double exec_s = 0.0;
  double queue_s = 0.0;
};

/// Poisson arrivals at `rate` per second for `seconds`. The mix follows
/// `rsnsec bench serve`, which makes every 16th request a ping; here the
/// 15th of every 16 is a `stats` probe as well, and the other 14 analyze a
/// uniformly drawn design.
std::vector<Arrival> poisson_schedule(Rng& rng, double rate, double seconds,
                                      std::size_t designs) {
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_s = t;
    const std::size_t slot = out.size() % 16;
    a.kind = slot == 15 ? Kind::Ping : slot == 14 ? Kind::Stats : Kind::Analyze;
    a.design = rng.below(static_cast<std::uint32_t>(designs));
    out.push_back(a);
  }
  return out;
}

struct Payloads {
  std::vector<std::string> analyze_body;  // `"rsn": ..., "spec": ...`
  std::vector<serve::Request> requests;
  std::vector<std::string> expected;      // one-shot execute results
};

Payloads make_payloads(std::uint64_t seed) {
  Payloads p;
  bench::SweepOptions opt = grid_options(seed);
  for (const std::string& name : serve_families()) {
    bench::Instance inst = bench::make_instance(name, opt, 0);
    Rng spec_rng(seed * 104729 + p.requests.size());
    security::SecuritySpec spec = benchgen::random_spec(
        inst.doc.module_names.size(), opt.spec, spec_rng);
    serve::Request req;
    req.command = serve::Command::Analyze;
    {
      std::ostringstream os;
      rsn::write_rsn(os, inst.doc.network, inst.doc.module_names,
                     &inst.circuit);
      req.rsn = os.str();
    }
    {
      std::ostringstream os;
      netlist::verilog::write(os, inst.circuit, inst.doc.network.name());
      req.verilog = os.str();
    }
    {
      std::ostringstream os;
      security::write_spec(os, spec, inst.doc.module_names);
      req.spec = os.str();
    }
    p.analyze_body.push_back("\"rsn\": \"" + json_escape(req.rsn) +
                             "\", \"verilog\": \"" + json_escape(req.verilog) +
                             "\", \"spec\": \"" + json_escape(req.spec) +
                             "\"");
    p.requests.push_back(std::move(req));
  }
  return p;
}

std::string request_line(const Arrival& a, std::size_t id, std::size_t conn,
                         const Payloads& p) {
  const char* command = a.kind == Kind::Analyze ? "analyze"
                        : a.kind == Kind::Ping  ? "ping"
                                                : "stats";
  std::string line = std::string("{\"command\": \"") + command +
                     "\", \"id\": \"" + std::to_string(id) +
                     "\", \"tenant\": \"client-" + std::to_string(conn) +
                     "\"";
  if (a.kind == Kind::Analyze) line += ", " + p.analyze_body[a.design];
  return line + "}\n";
}

/// Records one reply frame into `out` (indexed by the request id).
void record_reply(const std::string& text, double reply_s,
                  const std::vector<Arrival>& sched, const Payloads& p,
                  std::vector<Outcome>& out) {
  JsonParseResult parsed = parse_json(text);
  if (!parsed.ok() || !parsed.value->is_object()) return;
  std::optional<std::string> id = parsed.value->string_field("id");
  if (!id) return;
  const std::size_t i = std::stoul(*id);
  if (i >= out.size()) return;
  Outcome& oc = out[i];
  oc.reply_s = reply_s;
  oc.ok = parsed.value->bool_field("ok").value_or(false);
  if (!oc.ok) {
    const JsonValue* error = parsed.value->find("error");
    oc.busy = error != nullptr && error->is_object() &&
              error->string_field("code").value_or("") == "SRV005";
    return;
  }
  if (sched[i].kind != Kind::Analyze) return;
  const std::size_t begin = text.find("\"result\": ");
  const std::size_t end = text.rfind(", \"server\": ");
  oc.mismatch = begin == std::string::npos || end == std::string::npos ||
                text.compare(begin + 10, end - begin - 10,
                             p.expected[sched[i].design]) != 0;
  if (const JsonValue* server = parsed.value->find("server");
      server != nullptr && server->is_object()) {
    oc.cache_hit = server->bool_field("cache_hit").value_or(false);
    oc.exec_s = server->number_field("seconds").value_or(0.0);
    oc.queue_s = server->number_field("queue_wait_seconds").value_or(0.0);
  }
}

/// Sends `sched` open-loop over `conns` connections (request i on
/// connection i % conns), each connection with one sender and one reader
/// thread. Latency is measured from the due time, so a stall also delays
/// every request scheduled behind it.
std::vector<Outcome> run_open_loop(const std::string& socket_path,
                                   const std::vector<Arrival>& sched,
                                   const Payloads& p, std::size_t conns) {
  std::vector<Outcome> out(sched.size());
  std::vector<Socket> socks;
  for (std::size_t c = 0; c < conns; ++c)
    socks.push_back(Socket::connect_unix(socket_path));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto rel = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t readers_done = 0;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    std::size_t expected = 0;
    for (std::size_t i = c; i < sched.size(); i += conns) ++expected;
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = c; i < sched.size(); i += conns) {
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(sched[i].due_s)));
          const std::string line = request_line(sched[i], i, c, p);
          out[i].send_s = rel();
          socks[c].write_all(line);
        }
      } catch (const SocketError&) {
        // Unsent requests keep send_s < 0 and count as failed.
      }
    });
    threads.emplace_back([&, c, expected] {
      try {
        LineReader reader(socks[c], 1u << 24);
        for (std::size_t got = 0; got < expected; ++got) {
          std::optional<LineReader::Line> line = reader.next();
          if (!line) break;
          record_reply(line->text, rel(), sched, p, out);
        }
      } catch (const SocketError&) {
      }
      std::lock_guard<std::mutex> lock(mutex);
      ++readers_done;
      cv.notify_all();
    });
  }
  // A reply that never comes must not hang the benchmark: past the last
  // due time plus a grace period, unblock the readers.
  const double last_due = sched.empty() ? 0.0 : sched.back().due_s;
  {
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_until(lock,
                       t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(last_due + 30)),
                       [&] { return readers_done == conns; })) {
      for (Socket& s : socks) s.shutdown_both();
    }
  }
  for (std::thread& t : threads) t.join();
  return out;
}

std::string outcomes_json(double rate, const std::vector<Arrival>& sched,
                          const std::vector<Outcome>& out) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"rate\": " << rate << ", \"kind\": [";
  for (std::size_t i = 0; i < sched.size(); ++i)
    os << (i ? ", " : "") << static_cast<int>(sched[i].kind);
  os << "], \"design\": [";
  for (std::size_t i = 0; i < sched.size(); ++i)
    os << (i ? ", " : "") << sched[i].design;
  std::vector<double> due, send, reply, exec, queue, flags;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    due.push_back(sched[i].due_s);
    send.push_back(out[i].send_s);
    reply.push_back(out[i].reply_s);
    exec.push_back(out[i].exec_s);
    queue.push_back(out[i].queue_s);
    // Bit flags: 1 ok, 2 busy, 4 mismatch, 8 cache hit.
    flags.push_back((out[i].ok ? 1 : 0) + (out[i].busy ? 2 : 0) +
                    (out[i].mismatch ? 4 : 0) + (out[i].cache_hit ? 8 : 0));
  }
  os << "], \"due\": " << json_list(due) << ", \"send\": " << json_list(send)
     << ", \"reply\": " << json_list(reply) << ", \"exec\": "
     << json_list(exec) << ", \"queue\": " << json_list(queue)
     << ", \"flags\": " << json_list(flags) << "}";
  return os.str();
}

/// A running daemon: shared service with its own store, unix listener and
/// the accept-loop thread. Stops and joins on destruction.
class Daemon {
 public:
  Daemon(const std::string& dir, std::size_t workers, std::size_t jobs)
      : service_(service_options(dir, jobs)),
        server_(service_, server_options(dir, workers)) {
    server_.bind();
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~Daemon() {
    server_.request_stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::AnalysisService& service() { return service_; }
  std::string socket_path() const { return socket_path_; }

 private:
  static serve::ServiceOptions service_options(const std::string& dir,
                                               std::size_t jobs) {
    fs::remove_all(dir + "/store");
    serve::ServiceOptions o;
    o.store_dir = dir + "/store";
    o.analysis_threads = jobs;
    return o;
  }
  serve::ServerOptions server_options(const std::string& dir,
                                      std::size_t workers) {
    socket_path_ = dir + "/daemon.sock";
    serve::ServerOptions o;
    o.socket_path = socket_path_;
    o.workers = workers;
    return o;
  }

  std::string socket_path_;
  serve::AnalysisService service_;
  serve::Server server_;
  std::thread thread_;
};

/// FNV-1a over every payload, and the Verilog bytes they carry.
std::pair<std::uint64_t, std::size_t> payload_digest(const Payloads& p) {
  std::size_t verilog_bytes = 0;
  std::uint64_t digest = 1469598103934665603ULL;
  for (const serve::Request& req : p.requests) {
    verilog_bytes += req.verilog.size();
    for (const std::string* s : {&req.rsn, &req.verilog, &req.spec})
      for (char c : *s)
        digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return {digest, verilog_bytes};
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// The serve_open designs' digest, without running the daemon.
int cmd_serve_inputs(const Options& o) {
  const Payloads p = make_payloads(o.seed());
  std::cout << "{\"designs\": " << p.requests.size() << ", \"inputs_fnv\": \""
            << hex(payload_digest(p).first) << "\"}\n";
  return 0;
}

int cmd_serve(const Options& o) {
  const std::uint64_t seed = o.seed();
  const std::string work = o.require("work");
  const bool traced = o.traced();
  const std::string trace_out = o.str("trace-out", "");
  // The ladder runs after the main phase; the rest of --seconds is the
  // main phase, less about 2 s of set-up.
  const double main_seconds = std::max(
      2.0, o.seconds() - static_cast<double>(kLadder.size()) * kStepSeconds -
               2.0);
  fs::create_directories(work);

  // Installed before any service exists, so the daemon records into it
  // instead of installing a session of its own.
  obs::TraceSession session;
  if (traced) obs::TraceSession::set_active(&session);

  // Set-up, repeated: generate the designs, compute the one-shot
  // reference results (a store-less service, so the daemon's store starts
  // empty) and start the daemon. The last set-up serves the load.
  std::vector<double> setup_s;
  Payloads p;
  std::unique_ptr<Daemon> daemon;
  for (int s = 0; s < kSetups; ++s) {
    daemon.reset();
    auto t0 = Clock::now();
    p = make_payloads(seed);
    {
      serve::AnalysisService reference({});
      for (const serve::Request& req : p.requests) {
        serve::ExecResult r = reference.execute(req);
        if (!r.ok())
          throw std::runtime_error("reference analyze failed: " + r.message);
        p.expected.push_back(r.result_json);
      }
    }
    daemon = std::make_unique<Daemon>(work, kServeWorkers, kServeJobs);
    setup_s.push_back(since(t0));
  }

  Rng rng(seed * 7919 + 17);
  std::vector<Arrival> sched =
      poisson_schedule(rng, kServeRate, main_seconds, p.requests.size());
  std::vector<Outcome> main_out =
      run_open_loop(daemon->socket_path(), sched, p, kServeConns);
  std::string main_json = outcomes_json(kServeRate, sched, main_out);

  std::vector<std::string> steps;
  for (double r : kLadder) {
    std::vector<Arrival> s =
        poisson_schedule(rng, r, kStepSeconds, p.requests.size());
    steps.push_back(outcomes_json(
        r, s, run_open_loop(daemon->socket_path(), s, p, kServeConns)));
  }

  // AnalysisService::execute called directly on the same designs against
  // the daemon's warm store, untraced and traced alternately.
  std::vector<double> exec_plain, exec_traced;
  for (int round = 0; traced && round < 6; ++round) {
    const bool trace_round = round % 2 == 1;
    obs::TraceSession::set_active(trace_round ? &session : nullptr);
    for (const serve::Request& req : p.requests) {
      auto t0 = Clock::now();
      in_span("serve.execute",
              [&] { return daemon->service().execute(req); });
      (trace_round ? exec_traced : exec_plain).push_back(since(t0));
    }
  }
  // The daemon parses inline payloads without spans of its own; time the
  // same parser calls directly on the payloads.
  for (int round = 0; traced && round < 3; ++round) {
    obs::TraceSession::set_active(&session);
    for (const serve::Request& req : p.requests) {
      std::istringstream rsn_is(req.rsn), v_is(req.verilog),
          spec_is(req.spec);
      rsn::RsnDocument doc =
          in_span("rsn.read", [&] { return rsn::read_rsn(rsn_is); });
      netlist::verilog::ParsedCircuit parsed = in_span(
          "netlist.parse", [&] { return netlist::verilog::parse(v_is); });
      in_span("rsn.attach", [&] { rsn::apply_attachments(doc, parsed.nets); });
      in_span("security.spec_read", [&] {
        return security::read_spec(spec_is, doc.module_names);
      });
    }
  }
  obs::TraceSession::set_active(traced ? &session : nullptr);
  daemon.reset();
  obs::TraceSession::set_active(nullptr);
  fs::remove_all(work + "/store");
  if (!trace_out.empty()) {
    std::ofstream f = open_output(trace_out);
    session.write_chrome_trace(f);
  }

  const auto [digest, verilog_bytes] = payload_digest(p);
  std::cout << "{\"setup_s\": " << json_list(setup_s)
            << ", \"designs\": " << p.requests.size()
            << ", \"inputs_fnv\": \"" << hex(digest)
            << "\", \"verilog_bytes\": " << verilog_bytes
            << ", \"main\": " << main_json << ", \"ladder\": [";
  for (std::size_t i = 0; i < steps.size(); ++i)
    std::cout << (i ? ", " : "") << steps[i];
  std::cout << "], \"execute_plain_s\": " << json_list(exec_plain)
            << ", \"execute_traced_s\": " << json_list(exec_traced) << "}\n";
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("missing subcommand");
  const std::string cmd = argv[1];
  const Options o(argc, argv);
  if (cmd == "build-info") return cmd_build_info();
  if (cmd == "gen-mbist") return cmd_gen_mbist(o);
  if (cmd == "replica") return cmd_replica(o);
  if (cmd == "sweep") return cmd_sweep(o);
  if (cmd == "serve") return cmd_serve(o);
  if (cmd == "serve-inputs") return cmd_serve_inputs(o);
  throw std::runtime_error("unknown subcommand '" + cmd + "'");
}

}  // namespace
}  // namespace rsnsec::perfbench

int main(int argc, char** argv) {
  try {
    return rsnsec::perfbench::dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
