// Result-invariance of the incremental SAT hot path: incremental solving
// and cross-cone clause sharing must keep the dependency matrices and
// capture dependencies identical to asking a fresh checker about every
// leaf (the per-cone oracle in tests/oracle), and every counter
// bit-identical across thread counts.

#include <gtest/gtest.h>

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

/// Matrices, capture deps and classification counters must agree;
/// solver work counters are compared by the callers that need them.
void expect_same_results(const Workload& w, const DependencyAnalyzer& a,
                         const DependencyAnalyzer& b, const char* label) {
  EXPECT_TRUE(a.one_cycle() == b.one_cycle()) << label;
  EXPECT_TRUE(a.circuit_closure() == b.circuit_closure()) << label;
  for (rsn::ElemId r : w.doc.network.registers()) {
    const rsn::Element& e = w.doc.network.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      EXPECT_TRUE(a.capture_deps(r, f) == b.capture_deps(r, f))
          << label << " register " << r << " ff " << f;
    }
  }
  const DepStats &sa = a.stats(), &sb = b.stats();
  EXPECT_EQ(sa.deps_before_bridging, sb.deps_before_bridging) << label;
  EXPECT_EQ(sa.deps_after_bridging, sb.deps_after_bridging) << label;
  EXPECT_EQ(sa.closure_deps, sb.closure_deps) << label;
  EXPECT_EQ(sa.closure_path_deps, sb.closure_path_deps) << label;
  EXPECT_EQ(sa.sim_resolved, sb.sim_resolved) << label;
  EXPECT_EQ(sa.ternary_resolved, sb.ternary_resolved) << label;
  EXPECT_EQ(sa.sat_calls, sb.sat_calls) << label;
  EXPECT_EQ(sa.sat_functional, sb.sat_functional) << label;
  EXPECT_EQ(sa.sat_structural, sb.sat_structural) << label;
  EXPECT_EQ(sa.sat_unknown, sb.sat_unknown) << label;
  EXPECT_EQ(sa.cone_cache_hits, sb.cone_cache_hits) << label;
}

TEST(IncrementalDep, BitIdenticalToOracleOnAllBastionFamilies) {
  std::uint64_t incremental_work = 0, oracle_work = 0, total_sat = 0;
  std::uint64_t discharged = 0;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles()) {
    Workload w(p.name);
    DepOptions inc1;
    inc1.num_threads = 1;
    DepOptions incN = inc1;
    incN.num_threads = 8;

    DependencyAnalyzer b(w.circuit, w.doc.network, inc1);
    b.run();
    DependencyAnalyzer c(w.circuit, w.doc.network, incN);
    c.run();
    const oracle::DepOracle a = oracle::classify_from_scratch(b);
    expect_matches_oracle(w, b, a, p.name.c_str());
    expect_same_results(w, b, c, (p.name + " @8 threads").c_str());
    // Incremental runs are also deterministic across thread counts in
    // their *solver* counters (two-wave sharing, per-cone RNG streams).
    EXPECT_EQ(b.stats().solver_solves, c.stats().solver_solves) << p.name;
    EXPECT_EQ(b.stats().solver_conflicts, c.stats().solver_conflicts)
        << p.name;
    EXPECT_EQ(b.stats().cores_reused, c.stats().cores_reused) << p.name;
    EXPECT_EQ(b.stats().rotation_witnesses, c.stats().rotation_witnesses)
        << p.name;
    EXPECT_EQ(b.stats().shared_clauses, c.stats().shared_clauses) << p.name;
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

/// Hand-built workload with two same-shape AND-of-XOR cones, one fed
/// purely by flip-flops and one with a primary-input leaf. Their exact
/// signatures differ (leaf node types are part of verdict identity), so
/// the cone cache keeps them in separate groups — but their canonical
/// forms collapse FF and Input leaves, so the clause-sharing wave links
/// them.
struct TwoConeWorkload {
  netlist::Netlist nl;
  rsn::Rsn net{"two_cones"};

  explicit TwoConeWorkload(std::size_t width) {
    using netlist::GateType;
    using netlist::NodeId;
    auto build = [&](const std::string& tag, bool input_leaf) {
      std::vector<NodeId> xors;
      for (std::size_t i = 0; i < width; ++i) {
        NodeId a;
        if (input_leaf && i == 0) {
          a = nl.add_input(tag + "_in");
        } else {
          a = nl.add_ff(tag + "_a" + std::to_string(i));
          nl.set_ff_input(a, a);
        }
        NodeId b = nl.add_ff(tag + "_b" + std::to_string(i));
        nl.set_ff_input(b, b);
        xors.push_back(nl.add_gate(GateType::Xor, {a, b}));
      }
      NodeId t = nl.add_ff(tag);
      nl.set_ff_input(t, nl.add_gate(GateType::And, xors));
      return t;
    };
    NodeId ta = build("ta", false);
    NodeId tb = build("tb", true);
    rsn::ElemId r = net.add_register("R", 2);
    net.connect(net.scan_in(), r, 0);
    net.connect(r, net.scan_out(), 0);
    net.set_capture(r, 0, ta);
    net.set_capture(r, 1, tb);
  }
};

TEST(IncrementalDep, ClausesShareAcrossLeafKindsWithoutChangingResults) {
  TwoConeWorkload w(16);
  DepOptions sharing;
  sharing.num_threads = 1;
  sharing.ternary_prefilter = false;

  DependencyAnalyzer a(w.nl, w.net, sharing);
  a.run();

  // The two cones differ only in one leaf's node kind: distinct exact
  // groups (no cache hit between them), one canonical share group.
  EXPECT_GT(a.stats().sat_calls, 0u);
  EXPECT_GT(a.stats().shared_clauses, 0u);

  // Sharing changes solver work only, never results: the oracle shares
  // nothing.
  const oracle::DepOracle b = oracle::classify_from_scratch(a);
  EXPECT_TRUE(a.one_cycle() == b.one_cycle);
  EXPECT_TRUE(a.circuit_closure() == b.closure);
  EXPECT_EQ(a.stats().sim_resolved + a.stats().sat_functional, b.functional);
  EXPECT_EQ(a.stats().sat_structural, b.structural);
  EXPECT_EQ(a.stats().sat_unknown, b.unknown);

  // And the wave schedule keeps multi-threaded runs bit-identical,
  // including the sharing counters themselves.
  DepOptions sharing8 = sharing;
  sharing8.num_threads = 8;
  DependencyAnalyzer c(w.nl, w.net, sharing8);
  c.run();
  EXPECT_TRUE(a.one_cycle() == c.one_cycle());
  EXPECT_EQ(a.stats().shared_clauses, c.stats().shared_clauses);
  EXPECT_EQ(a.stats().solver_conflicts, c.stats().solver_conflicts);
}

}  // namespace
}  // namespace rsnsec::dep
