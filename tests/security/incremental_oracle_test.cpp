// Oracle equivalence of the incremental resolution engine: for every
// BASTION benchmark family (plus one MBIST configuration) and both main
// resolution policies, running detect-and-resolve with
//   - the from-scratch oracle loops (tests/oracle/resolve_oracle), which
//     repair with the probe-based oracle cut (tests/oracle/rewire_oracle)
//     on a fresh network copy per trial,
//   - the incremental engine at 1 thread,
//   - the incremental engine at 8 threads
// must produce bit-identical applied-change logs, statistics and final
// networks. This is the acceptance contract of the delta engine: any
// divergence in dirty-set computation, the support walk, region pulls,
// parallel candidate selection, the per-chunk working copy and its
// rollback, or the repairs' cycle check shows up here as a diff.
//
// Those families are capped at 24 registers. GridOracle adds Table I
// grid runs at full grid scale (up to 400 registers), where deep support
// forests and large dirty regions arise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "dep/analyzer.hpp"
#include "oracle/resolve_oracle.hpp"
#include "rsn/io.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"

namespace rsnsec::security {
namespace {

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  SecuritySpec spec{1, 1};
};

Workload make_workload(const benchgen::BenchmarkProfile& profile,
                       std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  // Keep every family small enough that the from-scratch oracle runs stay
  // cheap; equivalence is independent of scale. Both the register count
  // (resolution-loop length) and the flip-flop count (propagation-graph
  // size) must be capped — TreeUnbalanced has 63 registers but 42k FFs.
  double reg_cap = 24.0 / static_cast<double>(
                              std::max<std::size_t>(profile.registers, 1));
  double ff_cap = 3000.0 / static_cast<double>(
                               std::max<std::size_t>(profile.scan_ffs, 1));
  double scale = std::min({1.0, reg_cap, ff_cap});
  w.doc = benchgen::generate_bastion(profile, scale, rng);
  benchgen::CircuitOptions copt;
  copt.target_cross_functional = 6;
  copt.target_cross_structural = 6;
  w.circuit = benchgen::attach_random_circuit(w.doc, copt, rng);
  benchgen::SpecOptions sopt;
  sopt.expected_sensitive_modules = 4;
  w.spec = benchgen::random_spec(w.doc.module_names.size(), sopt, rng);
  return w;
}

std::string describe(const std::vector<AppliedChange>& log) {
  std::ostringstream os;
  for (const AppliedChange& c : log) {
    os << static_cast<int>(c.kind) << ':' << c.cut.from << "->" << c.cut.to
       << '@' << c.cut.port << ":iso" << c.isolated << ":ops"
       << c.rewire_operations << ':' << c.note << '\n';
  }
  return os.str();
}

struct RunOutcome {
  std::string log;
  std::string network;
  PureStats pure;
  HybridStats hybrid;
};

/// One full pure-then-hybrid resolution of the workload, by the
/// incremental engine with options `engine`, or by the from-scratch
/// oracle when `engine` is empty. The hybrid stage runs only when the
/// static checks are clean (mirroring the pipeline); `run_hybrid` is
/// decided by the caller so every configuration of one workload runs the
/// same stages.
RunOutcome run_resolution(const Workload& w,
                          const dep::DependencyAnalyzer& deps,
                          ResolutionPolicy policy, bool run_hybrid,
                          const std::optional<ResolveOptions>& engine) {
  TokenTable tokens(w.spec, w.spec.num_modules());
  rsn::Rsn net = w.doc.network;

  RunOutcome out;
  std::vector<AppliedChange> log;
  PureScanAnalyzer pure(w.spec, tokens);
  out.pure = engine ? pure.detect_and_resolve(net, &log, policy, {}, *engine)
                    : oracle::resolve_pure_from_scratch(pure, net, &log,
                                                        policy);
  if (run_hybrid) {
    HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec, tokens);
    out.hybrid =
        engine ? hybrid.detect_and_resolve(net, &log, policy, {}, *engine)
               : oracle::resolve_hybrid_from_scratch(hybrid, net, &log,
                                                     policy);
  }
  out.log = describe(log);
  std::ostringstream os;
  rsn::write_rsn(os, net, w.doc.module_names, nullptr);
  out.network = os.str();
  return out;
}

void expect_same(const RunOutcome& a, const RunOutcome& b,
                 const std::string& what) {
  EXPECT_EQ(a.log, b.log) << what << ": applied-change logs differ";
  EXPECT_EQ(a.network, b.network) << what << ": final networks differ";
  EXPECT_EQ(a.pure.initial_violating_registers,
            b.pure.initial_violating_registers)
      << what;
  EXPECT_EQ(a.pure.initial_violating_pairs, b.pure.initial_violating_pairs)
      << what;
  EXPECT_EQ(a.pure.applied_changes, b.pure.applied_changes) << what;
  EXPECT_EQ(a.pure.rewire_operations, b.pure.rewire_operations) << what;
  EXPECT_EQ(a.pure.fallback_isolations, b.pure.fallback_isolations) << what;
  EXPECT_EQ(a.hybrid.initial_violating_registers,
            b.hybrid.initial_violating_registers)
      << what;
  EXPECT_EQ(a.hybrid.initial_violating_pairs,
            b.hybrid.initial_violating_pairs)
      << what;
  EXPECT_EQ(a.hybrid.applied_changes, b.hybrid.applied_changes) << what;
  EXPECT_EQ(a.hybrid.rewire_operations, b.hybrid.rewire_operations) << what;
  EXPECT_EQ(a.hybrid.fallback_isolations, b.hybrid.fallback_isolations)
      << what;
}

void check_family(const benchgen::BenchmarkProfile& profile,
                  std::uint64_t seed) {
  Workload w = make_workload(profile, seed);
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();

  bool run_hybrid;
  {
    TokenTable tokens(w.spec, w.spec.num_modules());
    HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec, tokens);
    run_hybrid = hybrid.check_static().clean();
  }

  for (ResolutionPolicy policy :
       {ResolutionPolicy::BestGlobal, ResolutionPolicy::FirstImproving}) {
    ResolveOptions inc1;
    inc1.num_threads = 1;
    ResolveOptions inc8;
    inc8.num_threads = 8;

    RunOutcome a = run_resolution(w, deps, policy, run_hybrid, std::nullopt);
    RunOutcome b = run_resolution(w, deps, policy, run_hybrid, inc1);
    RunOutcome c = run_resolution(w, deps, policy, run_hybrid, inc8);

    std::string what = profile.name + "/policy" +
                       std::to_string(static_cast<int>(policy));
    expect_same(a, b, what + " oracle vs incremental@1");
    expect_same(a, c, what + " oracle vs incremental@8");
  }
}

class IncrementalOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IncrementalOracle, BastionFamilyMatchesOracle) {
  const benchgen::BenchmarkProfile& p =
      benchgen::bastion_profiles()[GetParam()];
  check_family(p, 0x5eedULL * 2654435761ULL + GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, IncrementalOracle,
    ::testing::Range<std::size_t>(0, benchgen::bastion_profiles().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return benchgen::bastion_profiles()[info.param].name;
    });

TEST(IncrementalOracleMbist, MbistMatchesOracle) {
  Workload w;
  Rng rng(0xdecafULL);
  w.doc = benchgen::generate_mbist(2, 2, 2, 0.5);
  benchgen::CircuitOptions copt;
  copt.target_cross_functional = 6;
  copt.target_cross_structural = 6;
  w.circuit = benchgen::attach_random_circuit(w.doc, copt, rng);
  benchgen::SpecOptions sopt;
  sopt.expected_sensitive_modules = 4;
  w.spec = benchgen::random_spec(w.doc.module_names.size(), sopt, rng);

  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  bool run_hybrid;
  {
    TokenTable tokens(w.spec, w.spec.num_modules());
    HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec, tokens);
    run_hybrid = hybrid.check_static().clean();
  }
  ResolveOptions inc8;
  inc8.num_threads = 8;
  RunOutcome a = run_resolution(w, deps, ResolutionPolicy::BestGlobal,
                                run_hybrid, std::nullopt);
  RunOutcome c = run_resolution(w, deps, ResolutionPolicy::BestGlobal,
                                run_hybrid, inc8);
  expect_same(a, c, "MBIST_2_2_2 oracle vs incremental@8");
}

/// One (circuit, spec) run of perfbench's table1_sweep grid 1000.
struct GridRun {
  const char* family;
  int circuit;
  int spec;
};

void PrintTo(const GridRun& run, std::ostream* os) {
  *os << run.family << " circuit " << run.circuit << " spec " << run.spec;
}

class GridOracle : public ::testing::TestWithParam<GridRun> {};

TEST_P(GridOracle, HybridMatchesOracle) {
  const GridRun& run = GetParam();
  // The grid's recipe: bench::make_instance at base seed 1000 and the
  // Table I spec stream at spec base seed 1.
  bench::SweepOptions opt;
  opt.base_seed = 1000;
  const bench::Instance inst = bench::make_instance(run.family, opt,
                                                    run.circuit);
  const SecuritySpec spec = bench::make_spec(
      inst, opt.spec, /*spec_base_seed=*/1,
      static_cast<std::size_t>(run.circuit),
      static_cast<std::size_t>(run.spec));
  dep::DependencyAnalyzer deps(inst.circuit, inst.doc.network, {});
  deps.run();
  TokenTable tokens(spec, spec.num_modules());
  HybridAnalyzer hybrid(inst.circuit, inst.doc.network, deps, spec, tokens);
  ASSERT_TRUE(hybrid.check_static().clean());

  // Both hybrid runs start from the same pure-resolved network.
  const auto policy = ResolutionPolicy::BestGlobal;
  ResolveOptions engine;
  engine.num_threads = 2;
  rsn::Rsn pure_resolved = inst.doc.network;
  PureScanAnalyzer pure(spec, tokens);
  pure.detect_and_resolve(pure_resolved, nullptr, policy, {}, engine);

  rsn::Rsn net_engine = pure_resolved;
  rsn::Rsn net_oracle = pure_resolved;
  std::vector<AppliedChange> log_engine;
  std::vector<AppliedChange> log_oracle;
  const HybridStats a = hybrid.detect_and_resolve(net_engine, &log_engine,
                                                  policy, {}, engine);
  const HybridStats b = oracle::resolve_hybrid_from_scratch(
      hybrid, net_oracle, &log_oracle, policy);
  ASSERT_GT(b.applied_changes, 0) << "no hybrid violation to resolve";
  EXPECT_EQ(describe(log_engine), describe(log_oracle));
  std::ostringstream os_engine;
  std::ostringstream os_oracle;
  rsn::write_rsn(os_engine, net_engine, inst.doc.module_names, nullptr);
  rsn::write_rsn(os_oracle, net_oracle, inst.doc.module_names, nullptr);
  EXPECT_EQ(os_engine.str(), os_oracle.str()) << "final networks differ";
  EXPECT_EQ(a.initial_violating_pairs, b.initial_violating_pairs);
  EXPECT_EQ(a.applied_changes, b.applied_changes);
  EXPECT_EQ(a.rewire_operations, b.rewire_operations);
  EXPECT_EQ(a.fallback_isolations, b.fallback_isolations);
}

INSTANTIATE_TEST_SUITE_P(
    Grid1000, GridOracle,
    ::testing::Values(GridRun{"FlexScan", 2, 1}, GridRun{"FlexScan", 2, 4},
                      GridRun{"t512505", 0, 0}, GridRun{"t512505", 2, 4}),
    [](const ::testing::TestParamInfo<GridRun>& info) {
      return std::string(info.param.family) + "_c" +
             std::to_string(info.param.circuit) + "_s" +
             std::to_string(info.param.spec);
    });

}  // namespace
}  // namespace rsnsec::security
