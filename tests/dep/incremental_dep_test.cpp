// Result-invariance of the exact-query hot path: the exhaustive check of
// small cones, incremental solving of wide ones (verdict cache,
// Unsat-core reuse, model rotation) and the cone cache must keep the
// dependency matrices and capture dependencies identical to asking a
// fresh checker about every leaf (the per-cone oracle in tests/oracle),
// and the classification counters at their pinned values.

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
void expect_matches_oracle(const DependencyAnalyzer& a,
                           const oracle::DepOracle& o, const char* label) {
  EXPECT_TRUE(a.one_cycle() == o.one_cycle) << label;
  EXPECT_TRUE(a.circuit_closure() == o.closure) << label;
  std::size_t slot = 0;
  for (rsn::ElemId r : a.network().registers()) {
    const rsn::Element& e = a.network().elem(r);
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
  std::uint64_t oracle_work = 0, total_sat = 0;
  std::size_t family = 0;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles()) {
    const PinnedCounters& want = pinned[family++];
    ASSERT_EQ(p.name, want.family);
    Workload w(p.name);
    DependencyAnalyzer b(w.circuit, w.doc.network, {});
    b.run();
    const oracle::DepOracle a = oracle::classify_from_scratch(b);
    expect_matches_oracle(b, a, p.name.c_str());
    expect_pinned(want, b.stats(), p.name);
    // Every cone of these workloads has at most kExhaustiveLeaves
    // non-constant leaves, so its exact queries are decided by
    // exhaustive simulation and none reaches the solver.
    EXPECT_EQ(b.stats().solver_solves, 0u) << p.name;
    oracle_work += a.queries;
    total_sat += b.stats().sat_calls;
  }
  // Across the whole family sweep exact queries must exist.
  EXPECT_GT(total_sat, 0u);
  EXPECT_GT(oracle_work, 0u);
}

/// A circuit flip-flop `t` whose next state is an alternating AND/XOR
/// chain over `width` self-looped flip-flops, captured by a one-bit
/// register: far more than kExhaustiveLeaves free leaves, and a leaf
/// early in the chain flips the root only when every later AND input is
/// 1, which random simulation rarely meets.
struct WideConeWorkload {
  netlist::Netlist circuit;
  rsn::Rsn network{"wide"};

  explicit WideConeWorkload(std::size_t width) {
    const netlist::ModuleId m = circuit.add_module("wide");
    std::vector<netlist::NodeId> ffs;
    for (std::size_t i = 0; i < width; ++i) {
      netlist::NodeId f = circuit.add_ff("f" + std::to_string(i), m);
      circuit.set_ff_input(f, f);
      ffs.push_back(f);
    }
    netlist::NodeId acc = ffs[0];
    for (std::size_t i = 1; i < width; ++i) {
      acc = circuit.add_gate(
          i % 2 ? netlist::GateType::Xor : netlist::GateType::And,
          {acc, ffs[i]});
    }
    const netlist::NodeId t = circuit.add_ff("t", m);
    circuit.set_ff_input(t, acc);
    const rsn::ElemId r = network.add_register("r", 1, m);
    network.connect(network.scan_in(), r, 0);
    network.connect(r, network.scan_out(), 0);
    network.set_capture(r, 0, t);
  }
};

TEST(IncrementalDep, SolverPathOnAWideConeMatchesOracleAndDischarges) {
  // Cones wider than kExhaustiveLeaves keep the incremental checker:
  // its verdict cache, core reuse and model rotation must still match
  // the per-query oracle, and must discharge leaves without solving.
  for (std::size_t width : {32u, 96u}) {
    const std::string label = "width " + std::to_string(width);
    WideConeWorkload w(width);
    DependencyAnalyzer b(w.circuit, w.network, {});
    b.run();
    const oracle::DepOracle a = oracle::classify_from_scratch(b);
    expect_matches_oracle(b, a, label.c_str());
    const DepStats& s = b.stats();
    EXPECT_GT(s.sat_calls, 0u) << label;
    EXPECT_GT(s.solver_solves, 0u) << label;
    EXPECT_LT(s.solver_solves, a.queries) << label;
    EXPECT_GT(s.cores_reused + s.rotation_witnesses, 0u) << label;
  }
}

}  // namespace
}  // namespace rsnsec::dep
