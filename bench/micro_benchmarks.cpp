// Engineering micro-benchmarks (not from the paper): throughput of the
// substrates that dominate the Table I runtimes — the SAT solver, the
// cone dependence check, the multi-cycle closure and the security
// propagations.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <sstream>

#include "bench/common.hpp"
#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/running_example.hpp"
#include "benchgen/specgen.hpp"
#include "core/analyze.hpp"
#include "dep/analyzer.hpp"
#include "flow/certify.hpp"
#include "netlist/cone_check.hpp"
#include "netlist/verilog.hpp"
#include "obs/trace.hpp"
#include "rsn/csu_sim.hpp"
#include "rsn/icl.hpp"
#include "rsn/io.hpp"
#include "sat/solver.hpp"
#include "security/filter.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec_io.hpp"
#include "serve/protocol.hpp"
#include "store/artifact_store.hpp"
#include "store/dep_cache.hpp"
#include "tests/support/table1_frame.hpp"
#include "util/dep_matrix.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace rsnsec;

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    std::vector<std::vector<sat::Var>> x(
        static_cast<std::size_t>(holes + 1),
        std::vector<sat::Var>(static_cast<std::size_t>(holes)));
    for (auto& row : x)
      for (sat::Var& v : row) v = s.new_var();
    for (int p = 0; p <= holes; ++p) {
      sat::Clause c;
      for (int h = 0; h < holes; ++h) c.push_back(sat::mk_lit(x[p][h]));
      s.add_clause(std::move(c));
    }
    for (int h = 0; h < holes; ++h)
      for (int p1 = 0; p1 <= holes; ++p1)
        for (int p2 = p1 + 1; p2 <= holes; ++p2)
          s.add_clause(~sat::mk_lit(x[p1][h]), ~sat::mk_lit(x[p2][h]));
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7)->Arg(8);

void BM_SatIncremental(benchmark::State& state) {
  // The dep-engine query pattern: one wide cone CNF, every flip-flop leaf
  // probed under assumptions through the incremental machinery (verdict
  // cache, trail-prefix reuse, Unsat-core reuse, model rotation).
  constexpr std::size_t kWidth = 96;
  netlist::Netlist nl;
  std::vector<netlist::NodeId> ffs;
  for (std::size_t i = 0; i < kWidth; ++i) {
    netlist::NodeId f = nl.add_ff("f" + std::to_string(i));
    nl.set_ff_input(f, f);
    ffs.push_back(f);
  }
  netlist::NodeId acc = ffs[0];
  for (std::size_t i = 1; i < kWidth; ++i) {
    acc = nl.add_gate(i % 2 ? netlist::GateType::Xor
                            : netlist::GateType::And,
                      {acc, ffs[i]});
  }
  netlist::NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, acc);
  netlist::Cone cone = nl.extract_next_state_cone(t);
  std::uint64_t solves = 0;
  for (auto _ : state) {
    netlist::ConeDependenceChecker chk(nl, cone);
    for (std::size_t i = 0; i < cone.leaves.size(); ++i)
      benchmark::DoNotOptimize(chk.query(i));
    solves = chk.solver_solves();
  }
  state.counters["solver_solves"] = static_cast<double>(solves);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWidth));
}
BENCHMARK(BM_SatIncremental);

void BM_ConeDependenceCheck(benchmark::State& state) {
  // A wide AND-XOR cone; every leaf requires a SAT query when the random
  // prefilter is bypassed.
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  netlist::Netlist nl;
  std::vector<netlist::NodeId> ffs;
  for (std::size_t i = 0; i < width; ++i) {
    netlist::NodeId f = nl.add_ff("f" + std::to_string(i));
    nl.set_ff_input(f, f);
    ffs.push_back(f);
  }
  netlist::NodeId acc = ffs[0];
  for (std::size_t i = 1; i < width; ++i) {
    acc = nl.add_gate(i % 2 ? netlist::GateType::Xor
                            : netlist::GateType::And,
                      {acc, ffs[i]});
  }
  netlist::NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, acc);
  netlist::Cone cone = nl.extract_next_state_cone(t);
  for (auto _ : state) {
    netlist::ConeDependenceChecker chk(nl, cone);
    for (std::size_t i = 0; i < cone.leaves.size(); ++i)
      benchmark::DoNotOptimize(chk.depends_on(i));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
}
BENCHMARK(BM_ConeDependenceCheck)->Arg(8)->Arg(32)->Arg(128);

void BM_DepMatrixClosure(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  DepMatrix base(n);
  for (std::size_t i = 0; i < 4 * n; ++i) {
    std::size_t a = rng.below(static_cast<std::uint32_t>(n));
    std::size_t b = rng.below(static_cast<std::uint32_t>(n));
    base.upgrade(a, b,
                 rng.chance(0.7) ? DepKind::Path : DepKind::Structural);
  }
  for (auto _ : state) {
    DepMatrix m = base;
    m.transitive_closure();
    benchmark::DoNotOptimize(m.count_nonzero());
  }
}
BENCHMARK(BM_DepMatrixClosure)->Arg(128)->Arg(512)->Arg(1024)->Arg(2048);

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  security::SecuritySpec spec{1, 2};

  explicit Workload(double target_ffs = 300) {
    Rng rng(3);
    const benchgen::BenchmarkProfile& p =
        benchgen::bastion_profile("Mingle");
    double scale = target_ffs / static_cast<double>(p.scan_ffs);
    doc = benchgen::generate_bastion(p, scale, rng);
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
    benchgen::SpecOptions sopt;
    sopt.restrict_prob = 0.4;
    spec = benchgen::random_spec(doc.module_names.size(), sopt, rng);
  }
};

void BM_OneCycleDependencyAnalysis(benchmark::State& state) {
  Workload w(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    dep::DependencyAnalyzer a(w.circuit, w.doc.network);
    a.run();
    benchmark::DoNotOptimize(a.stats().closure_deps);
  }
}
BENCHMARK(BM_OneCycleDependencyAnalysis)->Arg(100)->Arg(300);

void BM_PurePropagation(benchmark::State& state) {
  Workload w;
  security::TokenTable tokens(w.spec, w.spec.num_modules());
  security::PureScanAnalyzer pure(w.spec, tokens);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pure.count_violating_pairs(w.doc.network));
  }
}
BENCHMARK(BM_PurePropagation);

void BM_HybridPropagation(benchmark::State& state) {
  Workload w;
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  security::TokenTable tokens(w.spec, w.spec.num_modules());
  security::HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec,
                                  tokens);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hybrid.count_violating_pairs(w.doc.network));
  }
}
BENCHMARK(BM_HybridPropagation);

void BM_CsuShiftCycle(benchmark::State& state) {
  benchgen::RunningExample ex = benchgen::make_running_example();
  rsn::CsuSimulator sim(ex.doc.network, ex.circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.shift(0x5555));
  }
}
BENCHMARK(BM_CsuShiftCycle);

void BM_RsnCopyForTrial(benchmark::State& state) {
  Workload w;
  for (auto _ : state) {
    rsn::Rsn copy = w.doc.network;
    benchmark::DoNotOptimize(copy.num_elements());
  }
}
BENCHMARK(BM_RsnCopyForTrial);

void BM_ScanAccess(benchmark::State& state) {
  Workload w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.doc.network.scan_access());
  }
}
BENCHMARK(BM_ScanAccess);

void BM_FilterBaseline(benchmark::State& state) {
  Workload w;
  security::TokenTable tokens(w.spec, w.spec.num_modules());
  security::AccessFilterBaseline filter(w.doc.network, w.spec, tokens);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.analyze().inaccessible.size());
  }
}
BENCHMARK(BM_FilterBaseline);

void BM_IclLoad(benchmark::State& state) {
  // Build a representative ICL text once, then measure parse+elaborate.
  std::ostringstream icl;
  icl << "Module Leaf { ScanInPort SI; ScanOutPort SO { Source R; }\n"
         "  ScanRegister R[31:0] { ScanInSource SI; } }\n"
         "Module Top { ScanInPort SI; ScanOutPort SO { Source last; }\n";
  std::string prev = "SI";
  for (int i = 0; i < 64; ++i) {
    icl << "  Instance seg" << i << " Of Leaf { InputPort SI = " << prev
        << "; }\n";
    prev = "seg" + std::to_string(i);
  }
  icl << "  ScanRegister last { ScanInSource " << prev << "; } }\n";
  const std::string text = icl.str();
  for (auto _ : state) {
    std::istringstream is(text);
    rsn::RsnDocument doc = rsn::icl::load_icl(is);
    benchmark::DoNotOptimize(doc.network.num_scan_ffs());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_IclLoad);

// ---------------------------------------------------------------------------
// Text front ends (the BENCH_parse.json suite): the readers every CLI run
// and every daemon `analyze` starts with, on the files `rsnsec generate
// --benchmark MBIST_<n>_4_4 --seed 1` writes, reported as bytes/s.

struct GeneratedTexts {
  std::string rsn, verilog, spec;
  std::vector<std::string> module_names;
};

const GeneratedTexts& mbist_texts(std::size_t n) {
  static std::map<std::size_t, GeneratedTexts> cache;
  auto [it, added] = cache.try_emplace(n);
  if (!added) return it->second;
  Rng rng(1);
  rsn::RsnDocument doc = benchgen::generate_mbist(n, 4, 4, 1.0);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), {}, rng);
  std::ostringstream rsn_os, v_os, spec_os;
  rsn::write_rsn(rsn_os, doc.network, doc.module_names, &circuit);
  netlist::verilog::write(v_os, circuit, doc.network.name());
  security::write_spec(spec_os, spec, doc.module_names);
  it->second = {rsn_os.str(), v_os.str(), spec_os.str(), doc.module_names};
  return it->second;
}

template <typename Read>
void parse_loop(benchmark::State& state, const std::string& text,
                Read&& read) {
  for (auto _ : state) {
    std::istringstream is(text);
    read(is);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["bytes"] = static_cast<double>(text.size());
}

void BM_ParseVerilog(benchmark::State& state) {
  const GeneratedTexts& t =
      mbist_texts(static_cast<std::size_t>(state.range(0)));
  parse_loop(state, t.verilog, [](std::istream& is) {
    benchmark::DoNotOptimize(netlist::verilog::parse(is).netlist.num_nodes());
  });
}
BENCHMARK(BM_ParseVerilog)
    ->ArgName("mbist")
    ->Arg(10)
    ->Arg(30)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Gates written before their fanins' drivers: a buffer chain in reverse.
void BM_ParseVerilogReversed(benchmark::State& state) {
  const auto gates = static_cast<int>(state.range(0));
  std::string text = "module chain(input n0);\n";
  for (int i = gates; i >= 1; --i)
    text += "  buf (n" + std::to_string(i) + ", n" + std::to_string(i - 1) +
            ");\n";
  text += "  dff (q, n" + std::to_string(gates) + ");\nendmodule\n";
  parse_loop(state, text, [](std::istream& is) {
    benchmark::DoNotOptimize(netlist::verilog::parse(is).netlist.num_nodes());
  });
}
BENCHMARK(BM_ParseVerilogReversed)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_ReadRsn(benchmark::State& state) {
  const GeneratedTexts& t =
      mbist_texts(static_cast<std::size_t>(state.range(0)));
  parse_loop(state, t.rsn, [](std::istream& is) {
    benchmark::DoNotOptimize(rsn::read_rsn(is).network.num_scan_ffs());
  });
}
BENCHMARK(BM_ReadRsn)
    ->ArgName("mbist")
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_ReadSpec(benchmark::State& state) {
  const GeneratedTexts& t =
      mbist_texts(static_cast<std::size_t>(state.range(0)));
  parse_loop(state, t.spec, [&](std::istream& is) {
    benchmark::DoNotOptimize(
        security::read_spec(is, t.module_names).num_modules());
  });
}
BENCHMARK(BM_ReadSpec)->ArgName("mbist")->Arg(100);

// One daemon request frame: `analyze` of the serve_open benchmark's q12710
// design (its first Table I circuit, seed 1, about 170 KB with the three
// payloads inline), decoded by serve::parse_request as the daemon's
// reader thread does.
void BM_ParseRequest(benchmark::State& state) {
  const std::string frame = table1_frame("q12710", 4).frame;
  for (auto _ : state) {
    serve::ParseOutcome o = serve::parse_request(frame);
    benchmark::DoNotOptimize(o.request->verilog.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
  state.counters["bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_ParseRequest)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Detect-and-resolve with the incremental delta engine (the
// BENCH_resolve.json suite). The workloads are tuned so the resolution
// loop actually runs (a restrictive spec over a dense cross-functional
// circuit); a run that applies no change is reported as an error rather
// than a vacuous timing.

struct ResolveWorkload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  security::SecuritySpec spec{1, 2};

  ResolveWorkload(const char* profile, double target_ffs, std::uint32_t seed,
                  double cross_functional, double sensitive_modules,
                  double restrict_prob, double low_trust_prob,
                  bool with_circuit) {
    Rng rng(seed);
    const benchgen::BenchmarkProfile& p = benchgen::bastion_profile(profile);
    doc = benchgen::generate_bastion(
        p, target_ffs / static_cast<double>(p.scan_ffs), rng);
    if (with_circuit) {
      benchgen::CircuitOptions copt;
      copt.target_cross_functional = cross_functional;
      circuit = benchgen::attach_random_circuit(doc, copt, rng);
    }
    benchgen::SpecOptions sopt;
    sopt.expected_sensitive_modules = sensitive_modules;
    sopt.restrict_prob = restrict_prob;
    sopt.low_trust_prob = low_trust_prob;
    spec = benchgen::random_spec(doc.module_names.size(), sopt, rng);
  }
};

void BM_PureResolve(benchmark::State& state) {
  // Pure-path resolution (element-granular propagation) under a
  // restrictive spec; the circuit is irrelevant to the pure analyzer.
  ResolveWorkload w("Mingle", static_cast<double>(state.range(0)), 3, 0.0,
                    8.0, 0.9, 0.7, /*with_circuit=*/false);
  security::TokenTable tokens(w.spec, w.spec.num_modules());
  security::PureScanAnalyzer pure(w.spec, tokens);
  std::size_t changes = 0;
  for (auto _ : state) {
    rsn::Rsn net = w.doc.network;
    security::PureStats stats = pure.detect_and_resolve(net);
    changes = stats.applied_changes;
    benchmark::DoNotOptimize(net.num_elements());
  }
  if (changes == 0) {
    state.SkipWithError("workload resolved no violations");
    return;
  }
  state.counters["changes"] = static_cast<double>(changes);
}
BENCHMARK(BM_PureResolve)->ArgName("ffs")->Arg(900)->Arg(2000);

void BM_HybridResolve(benchmark::State& state) {
  // The flagship hybrid workload: a balanced-tree RSN at 3000 scan FFs
  // with a dense cross-functional circuit and a spec restrictive enough
  // for ~10 applied changes, resolved from the raw generated network.
  // The dependency analysis and token table are built once outside the
  // timed region (the pipeline shares them across stages anyway); the
  // timed region is exactly one detect_and_resolve, including its index
  // build.
  ResolveWorkload w("TreeBalanced", 3000, 5, 2.0, 6.0, 0.8, 0.5,
                    /*with_circuit=*/true);
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  security::TokenTable tokens(w.spec, w.spec.num_modules());
  security::HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec,
                                  tokens);
  security::ResolveOptions ropt;
  ropt.num_threads = 1;
  std::size_t changes = 0;
  for (auto _ : state) {
    rsn::Rsn net = w.doc.network;
    security::HybridStats stats = hybrid.detect_and_resolve(
        net, nullptr, security::ResolutionPolicy::BestGlobal, {}, ropt);
    changes = stats.applied_changes;
    benchmark::DoNotOptimize(net.num_elements());
  }
  if (changes == 0) {
    state.SkipWithError("workload resolved no violations");
    return;
  }
  state.counters["changes"] = static_cast<double>(changes);
}
BENCHMARK(BM_HybridResolve)->Unit(benchmark::kMillisecond);

void BM_ResolveFlexScan(benchmark::State& state) {
  // One Table I FlexScan run made with the grid's recipe (400 one-FF
  // registers, expected_sensitive_modules 2.5, low_trust_prob 0.1):
  // circuit 0 and spec 0 of `rsnsec bench table1` at base seed 1. FlexScan
  // spends most of its Table I time in resolution, so the timed region is
  // the pipeline's pure then hybrid detect_and_resolve on 1 thread; the
  // dependency analysis runs once outside it.
  const bench::SweepOptions opt;
  const bench::Instance inst = bench::make_instance("FlexScan", opt, 0);
  const security::SecuritySpec spec =
      bench::make_spec(inst, opt.spec, opt.base_seed, 0, 0);
  dep::DependencyAnalyzer deps(inst.circuit, inst.doc.network, {});
  deps.run();
  security::TokenTable tokens(spec, spec.num_modules());
  security::HybridAnalyzer hybrid(inst.circuit, inst.doc.network, deps, spec,
                                  tokens);
  if (!hybrid.check_static().clean()) {
    state.SkipWithError("statically insecure workload");
    return;
  }
  security::PureScanAnalyzer pure(spec, tokens);
  security::ResolveOptions ropt;
  ropt.num_threads = 1;
  const auto policy = security::ResolutionPolicy::BestGlobal;
  auto resolve = [&] {
    rsn::Rsn net = inst.doc.network;
    int changes = pure.detect_and_resolve(net, nullptr, policy, {}, ropt)
                      .applied_changes;
    changes += hybrid.detect_and_resolve(net, nullptr, policy, {}, ropt)
                   .applied_changes;
    return changes;
  };

  // One traced run before the timed loop counts the trials and the
  // nodes the hybrid trials re-solved; the timed runs are untraced.
  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  const int changes = resolve();
  obs::TraceSession::set_active(nullptr);
  const std::uint64_t trials =
      session.counter("resolve.candidates_evaluated").value();
  const std::uint64_t hybrid_region =
      session.counter("resolve.hybrid_region").value();
  if (changes == 0) {
    state.SkipWithError("workload resolved no violations");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(resolve());
  state.counters["changes"] = static_cast<double>(changes);
  state.counters["trials"] = static_cast<double>(trials);
  state.counters["hybrid_region"] = static_cast<double>(hybrid_region);
}
BENCHMARK(BM_ResolveFlexScan)->Unit(benchmark::kMillisecond);

// Cone-isomorphism memoization of the dependency analysis on a workload
// with heavily repeated structure (MBIST memory interfaces).
void BM_DependencyAnalysisConeCache(benchmark::State& state) {
  Rng rng(11);
  rsn::RsnDocument doc = benchgen::generate_mbist(2, 3, 4, 1.0);
  netlist::Netlist nl = benchgen::attach_random_circuit(doc, {}, rng);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    dep::DependencyAnalyzer a(nl, doc.network);
    a.run();
    hits = a.stats().cone_cache_hits;
    benchmark::DoNotOptimize(a.stats().closure_deps);
  }
  state.counters["cone_cache_hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_DependencyAnalysisConeCache);

// Pair-ternary SAT triage of the dependency analysis on the standard
// Mingle workload. arg: 0 = prefilter off (every undecided leaf goes to
// SAT), 1 = on (provably-dead leaves are discharged without a solver
// call). Matrices are bit-identical either way; the counters record the
// avoided SAT work.
void BM_DependencyAnalysisTernary(benchmark::State& state) {
  Workload w(400);
  dep::DepOptions opt;
  opt.ternary_prefilter = state.range(0) != 0;
  std::uint64_t ternary = 0, sat = 0;
  for (auto _ : state) {
    dep::DependencyAnalyzer a(w.circuit, w.doc.network, opt);
    a.run();
    ternary = a.stats().ternary_resolved;
    sat = a.stats().sat_calls;
    benchmark::DoNotOptimize(a.stats().closure_deps);
  }
  state.counters["ternary_resolved"] = static_cast<double>(ternary);
  state.counters["sat_calls"] = static_cast<double>(sat);
}
BENCHMARK(BM_DependencyAnalysisTernary)
    ->ArgName("ternary")
    ->Arg(0)
    ->Arg(1);

// ---------------------------------------------------------------------------
// Flow certifier (the BENCH_certify.json suite): one full SAT-free
// re-verification — taint graph construction (including the per-edge
// ternary proofs when enabled) plus the three tier fixpoints and the
// finding classification. arg: 0 = ternary refinement off, 1 = on.

void BM_Certify(benchmark::State& state) {
  Workload w(400);
  // The shared workload's sparse spec happens to certify clean on this
  // seed; an unsecured network with real leaks is the representative
  // input (the classification walk over violating pairs is the output-
  // dependent part of the pass), so use a denser spec for this suite.
  Rng rng(7);
  benchgen::SpecOptions sopt;
  sopt.expected_sensitive_modules = 8.0;
  sopt.low_trust_prob = 0.35;
  w.spec = benchgen::random_spec(w.doc.module_names.size(), sopt, rng);
  flow::CertifyOptions opt;
  opt.ternary_refine = state.range(0) != 0;
  std::size_t pairs = 0, discharged = 0;
  for (auto _ : state) {
    flow::CertifyResult r =
        flow::certify(w.circuit, w.doc.network, w.spec, opt);
    pairs = r.stats.violating_pairs;
    discharged = r.stats.ternary_discharged;
    benchmark::DoNotOptimize(r.diagnostics.size());
  }
  state.counters["violating_pairs"] = static_cast<double>(pairs);
  state.counters["ternary_discharged"] = static_cast<double>(discharged);
}
BENCHMARK(BM_Certify)->ArgName("ternary")->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Artifact store (the BENCH_store.json suite): the serialization + disk
// round trip of one analysis snapshot, and the end-to-end dependency
// phase cold (store emptied every iteration: full analysis + publication)
// vs warm (replayed from the store, zero analysis work).

void BM_StoreRoundTrip(benchmark::State& state) {
  Workload w;
  dep::DependencyAnalyzer a(w.circuit, w.doc.network, {});
  a.run();
  store::ByteWriter enc;
  store::encode_dep_snapshot(enc, a.snapshot());
  const std::string payload = enc.bytes();
  const std::string key =
      store::dep_cache_key(w.circuit, w.doc.network, a.options());

  std::filesystem::path root =
      std::filesystem::temp_directory_path() / "rsnsec_bench_store_rt";
  std::filesystem::remove_all(root);
  store::StoreOptions sopt;
  sopt.memory_tier = false;  // measure the disk tier, not the LRU map
  store::ArtifactStore st(root, sopt);
  for (auto _ : state) {
    st.put(key, payload);
    std::optional<std::string> blob = st.load(key);
    store::ByteReader r(*blob);
    dep::DependencyAnalyzer::AnalysisSnapshot snap =
        store::decode_dep_snapshot(r);
    benchmark::DoNotOptimize(snap.stats.closure_deps);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  state.counters["blob_bytes"] = static_cast<double>(payload.size());
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_StoreRoundTrip);

void BM_DependencyAnalysisStore(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  Workload w(400);
  std::filesystem::path root =
      std::filesystem::temp_directory_path() / "rsnsec_bench_store_dep";
  std::filesystem::remove_all(root);
  store::ArtifactStore st(root);
  if (warm) {
    // Publish once; every timed iteration is then a pure store hit.
    dep::DependencyAnalyzer seed_run(w.circuit, w.doc.network, {});
    store::run_with_store(&st, seed_run);
  }
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      st.gc(0);  // empty disk AND memory tier: genuinely cold
      state.ResumeTiming();
    }
    dep::DependencyAnalyzer a(w.circuit, w.doc.network, {});
    store::run_with_store(&st, a);
    benchmark::DoNotOptimize(a.stats().closure_deps);
  }
  store::StoreCounters c = st.counters();
  state.counters["store_hits"] = static_cast<double>(c.hits);
  state.counters["store_misses"] = static_cast<double>(c.misses);
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_DependencyAnalysisStore)
    ->ArgName("warm")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// SHA-256 of `bytes` random bytes (1 KiB, and the 170,000 bytes of a
// serve_open request's three texts): the dispatched compression
// (dispatched:1, the SHA extensions where CPUID reports them; the label
// says which ran) against the portable one (dispatched:0).
void BM_StoreSha256(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), '\0');
  Rng rng(29);
  for (char& c : data) c = static_cast<char>(rng.below(256));
  const bool dispatched = state.range(1) != 0;
  for (auto _ : state) {
    store::Sha256 h = dispatched ? store::Sha256() : store::Sha256::portable();
    h.update(data);
    benchmark::DoNotOptimize(h.digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(dispatched && store::Sha256::uses_sha_extensions()
                     ? "sha-extensions"
                     : "portable");
}
BENCHMARK(BM_StoreSha256)
    ->ArgNames({"bytes", "dispatched"})
    ->Args({1024, 1})
    ->Args({1024, 0})
    ->Args({170000, 1})
    ->Args({170000, 0});

// A warm daemon `analyze`: the serve_open q12710 payloads (design 4,
// seed 1) through the text-level analyze against a store that already
// holds their report, so each iteration hashes the texts and loads and
// decodes the report.
void BM_StoreWarmAnalyze(benchmark::State& state) {
  const Table1Frame f = table1_frame("q12710", 4);
  DesignText text;
  text.network = f.rsn;
  text.verilog = f.verilog;
  text.spec = f.spec;
  std::filesystem::path root =
      std::filesystem::temp_directory_path() / "rsnsec_bench_store_warm";
  std::filesystem::remove_all(root);
  store::ArtifactStore st(root);
  analyze(text, {}, &st);  // the cold run publishes the report
  for (auto _ : state) {
    AnalyzeResult r = analyze(text, {}, &st);
    benchmark::DoNotOptimize(r.report.violating_registers);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(f.rsn.size() + f.verilog.size() +
                                f.spec.size()));
  state.counters["store_hits"] = static_cast<double>(st.counters().hits);
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_StoreWarmAnalyze)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
