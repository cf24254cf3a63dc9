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
// divergence in dirty-set computation, affected-set closure, boundary
// merges, parallel candidate selection, the per-chunk working copy and
// its rollback, or the repairs' cycle check shows up here as a diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace rsnsec::security
