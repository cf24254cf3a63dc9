// Result-invariance of the incremental SAT hot path: incremental solving
// (verdict cache, Unsat-core reuse, model rotation) and the cone cache
// must keep the dependency matrices and capture dependencies identical to
// asking a fresh checker about every leaf (the per-cone oracle in
// tests/oracle), and the classification counters at their pinned
// values.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "dep/analyzer.hpp"
#include "oracle/dep_oracle.hpp"

namespace rsnsec::dep {

static bool operator==(const CaptureDep& a, const CaptureDep& b) {
  return a.circuit_ff == b.circuit_ff && a.kind == b.kind;
}

namespace {

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;

  explicit Workload(const std::string& family, double target_ffs = 100) {
    Rng rng(11);
    const benchgen::BenchmarkProfile& p = benchgen::bastion_profile(family);
    double scale = target_ffs / static_cast<double>(p.scan_ffs);
    if (scale > 1.0) scale = 1.0;
    doc = benchgen::generate_bastion(p, scale, rng);
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
  }
};

/// The analysis must match the from-scratch oracle: matrices, capture
/// deps as sets, and classification counters that account for exactly
/// the oracle's verdicts.
void expect_matches_oracle(const Workload& w, const DependencyAnalyzer& a,
                           const oracle::DepOracle& o, const char* label) {
  EXPECT_TRUE(a.one_cycle() == o.one_cycle) << label;
  EXPECT_TRUE(a.circuit_closure() == o.closure) << label;
  std::size_t slot = 0;
  for (rsn::ElemId r : w.doc.network.registers()) {
    const rsn::Element& e = w.doc.network.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      EXPECT_TRUE(oracle::sorted(a.capture_deps(r, f)) ==
                  o.capture_deps[slot][f])
          << label << " register " << r << " ff " << f;
    }
    ++slot;
  }
  const DepStats& s = a.stats();
  EXPECT_EQ(s.sim_resolved + s.sat_functional, o.functional) << label;
  EXPECT_EQ(s.ternary_resolved + s.sat_structural, o.structural) << label;
  EXPECT_EQ(s.sat_unknown, o.unknown) << label;
}

/// Classification counters of one family's 100-FF workload. Solver work
/// counters are deliberately not pinned: they measure how much search the
/// incremental machinery needed, not what it decided.
struct PinnedCounters {
  const char* family;
  std::uint64_t sim_resolved, ternary_resolved, sat_calls, sat_functional,
      sat_structural, sat_unknown, cone_cache_hits;
  std::size_t deps_after_bridging, closure_deps;
};

void expect_pinned(const PinnedCounters& want, const DepStats& s,
                   const std::string& label) {
  EXPECT_EQ(s.sim_resolved, want.sim_resolved) << label;
  EXPECT_EQ(s.ternary_resolved, want.ternary_resolved) << label;
  EXPECT_EQ(s.sat_calls, want.sat_calls) << label;
  EXPECT_EQ(s.sat_functional, want.sat_functional) << label;
  EXPECT_EQ(s.sat_structural, want.sat_structural) << label;
  EXPECT_EQ(s.sat_unknown, want.sat_unknown) << label;
  EXPECT_EQ(s.cone_cache_hits, want.cone_cache_hits) << label;
  EXPECT_EQ(s.deps_after_bridging, want.deps_after_bridging) << label;
  EXPECT_EQ(s.closure_deps, want.closure_deps) << label;
}

TEST(IncrementalDep, BitIdenticalToOracleOnAllBastionFamilies) {
  const PinnedCounters pinned[] = {
      {"BasicSCB", 280, 29, 19, 0, 19, 0, 118, 104, 1219},
      {"Mingle", 319, 33, 5, 0, 5, 0, 119, 109, 1611},
      {"TreeFlat", 296, 30, 16, 0, 16, 0, 104, 104, 346},
      {"TreeFlatEx", 329, 33, 6, 0, 6, 0, 117, 106, 1687},
      {"TreeBalanced", 329, 33, 6, 0, 6, 0, 117, 106, 1687},
      {"TreeUnbalanced", 329, 33, 6, 0, 6, 0, 117, 106, 1687},
      {"q12710", 359, 20, 2, 0, 2, 0, 130, 108, 1777},
      {"t512505", 359, 20, 2, 0, 2, 0, 130, 108, 1777},
      {"p22810", 359, 20, 2, 0, 2, 0, 130, 108, 1777},
      {"a586710", 359, 20, 2, 0, 2, 0, 130, 108, 1777},
      {"p34392", 359, 20, 2, 0, 2, 0, 130, 108, 1777},
      {"p93791", 359, 20, 2, 0, 2, 0, 130, 108, 1777},
      {"FlexScan", 292, 100, 4, 0, 4, 0, 313, 80, 80},
  };
  ASSERT_EQ(std::size(pinned), benchgen::bastion_profiles().size());
  std::uint64_t incremental_work = 0, oracle_work = 0, total_sat = 0;
  std::uint64_t discharged = 0;
  std::size_t family = 0;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles()) {
    const PinnedCounters& want = pinned[family++];
    ASSERT_EQ(p.name, want.family);
    Workload w(p.name);
    DependencyAnalyzer b(w.circuit, w.doc.network, {});
    b.run();
    const oracle::DepOracle a = oracle::classify_from_scratch(b);
    expect_matches_oracle(w, b, a, p.name.c_str());
    expect_pinned(want, b.stats(), p.name);
    // A query answered from the verdict cache, a reused core or a
    // rotated model never reaches the solver, so the incremental engine
    // can only solve less than one solve per flip-flop leaf.
    EXPECT_LE(b.stats().solver_solves, a.queries) << p.name;
    incremental_work += b.stats().solver_solves;
    oracle_work += a.queries;
    total_sat += b.stats().sat_calls;
    discharged += b.stats().cores_reused + b.stats().rotation_witnesses;
  }
  // Across the whole family sweep SAT work must exist and the
  // incremental machinery must discharge a real share of it.
  EXPECT_GT(total_sat, 0u);
  EXPECT_GT(discharged, 0u);
  EXPECT_LT(incremental_work, oracle_work);
}

}  // namespace
}  // namespace rsnsec::dep
