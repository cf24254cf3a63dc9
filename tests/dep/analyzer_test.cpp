#include "dep/analyzer.hpp"

#include <gtest/gtest.h>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/running_example.hpp"
#include "obs/trace.hpp"

namespace rsnsec::dep {
namespace {

using benchgen::RunningExample;

class RunningExampleDeps : public ::testing::Test {
 protected:
  RunningExampleDeps() : ex_(benchgen::make_running_example()) {}

  DependencyAnalyzer analyze(DepOptions opt = {}) {
    DependencyAnalyzer a(ex_.circuit, ex_.doc.network, opt);
    a.run();
    return a;
  }

  RunningExample ex_;
};

TEST_F(RunningExampleDeps, InternalFlipFlopsClassified) {
  DependencyAnalyzer a = analyze();
  // IF1 and IF2 are not capture sources / update targets: internal.
  EXPECT_TRUE(a.is_internal(a.circuit_index(ex_.if1)));
  EXPECT_TRUE(a.is_internal(a.circuit_index(ex_.if2)));
  // F2, F5, F6, F7 are directly connected.
  EXPECT_FALSE(a.is_internal(a.circuit_index(ex_.f2)));
  EXPECT_FALSE(a.is_internal(a.circuit_index(ex_.f5)));
  EXPECT_FALSE(a.is_internal(a.circuit_index(ex_.f7)));
  EXPECT_EQ(a.stats().internal_ffs, 2u);
}

TEST_F(RunningExampleDeps, OneCycleKindsMatchPaper) {
  // Sec. II-A: "IF2 is 1-cycle functionally dependent on IF1, IF1 is
  // 1-cycle functionally dependent on F5 and IF1 is 1-cycle only
  // structurally dependent on F6 due to the reconvergence."
  DepOptions opt;
  opt.bridge_internal = false;  // keep internal FFs to inspect 1-cycle
  DependencyAnalyzer a = analyze(opt);
  const DepMatrix& m = a.one_cycle();
  auto idx = [&](netlist::NodeId n) { return a.circuit_index(n); };
  EXPECT_EQ(m.get(idx(ex_.if1), idx(ex_.if2)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.f5), idx(ex_.if1)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.f6), idx(ex_.if1)), DepKind::Structural);
  EXPECT_EQ(m.get(idx(ex_.f2), idx(ex_.f6)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.if2), idx(ex_.f7)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.if2), idx(ex_.f9)), DepKind::Path);
}

TEST_F(RunningExampleDeps, MultiCycleKindsMatchPaper) {
  // "IF2 is path-dependent on F5 and IF2 is multi-cycle only structural
  // dependent on F6."
  DepOptions opt;
  opt.bridge_internal = false;
  DependencyAnalyzer a = analyze(opt);
  const DepMatrix& m = a.circuit_closure();
  auto idx = [&](netlist::NodeId n) { return a.circuit_index(n); };
  EXPECT_EQ(m.get(idx(ex_.f5), idx(ex_.if2)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.f6), idx(ex_.if2)), DepKind::Structural);
  // Crypto to untrusted overall: F2 -> F6 (path) -> IF1 (struct) -> F7:
  // only structural — the Fig. 5 security argument.
  EXPECT_EQ(m.get(idx(ex_.f2), idx(ex_.f7)), DepKind::Structural);
  // F5 -> F7 is a real data path.
  EXPECT_EQ(m.get(idx(ex_.f5), idx(ex_.f7)), DepKind::Path);
}

TEST_F(RunningExampleDeps, BridgedClosureMatchesUnbridgedOnKeptNodes) {
  DepOptions bridged;
  DepOptions unbridged;
  unbridged.bridge_internal = false;
  DependencyAnalyzer a = analyze(bridged);
  DependencyAnalyzer b = analyze(unbridged);
  // On non-internal pairs both computations must agree (bridging is an
  // exact reduction, Sec. III-A.2 / Fig. 3).
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i) {
    if (a.is_internal(i)) continue;
    for (std::size_t j = 0; j < a.num_circuit_ffs(); ++j) {
      if (a.is_internal(j) || i == j) continue;
      EXPECT_EQ(a.circuit_closure().get(i, j),
                b.circuit_closure().get(i, j))
          << i << " -> " << j;
    }
  }
}

TEST_F(RunningExampleDeps, BridgingReducesDenotedData) {
  DependencyAnalyzer a = analyze();
  const DepStats& s = a.stats();
  EXPECT_GT(s.deps_before_bridging, 0u);
  EXPECT_LE(s.denoted_ffs_after, s.denoted_ffs_before);
  // Bridged-out flip-flops have no dependencies left.
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i) {
    if (!a.is_internal(i)) continue;
    EXPECT_TRUE(a.circuit_closure().successors(i).empty());
    EXPECT_TRUE(a.circuit_closure().predecessors(i).empty());
  }
}

TEST_F(RunningExampleDeps, StructuralOnlyModeOverApproximates) {
  DepOptions exact;
  DepOptions structural;
  structural.mode = DepMode::StructuralOnly;
  DependencyAnalyzer a = analyze(exact);
  DependencyAnalyzer b = analyze(structural);
  auto idx = [&](netlist::NodeId n) { return a.circuit_index(n); };
  // The over-approximation turns the cancelled F2 -> F7 route into a
  // (false) path dependency: the Sec. IV-C phenomenon.
  EXPECT_EQ(a.circuit_closure().get(idx(ex_.f2), idx(ex_.f7)),
            DepKind::Structural);
  EXPECT_EQ(b.circuit_closure().get(idx(ex_.f2), idx(ex_.f7)),
            DepKind::Path);
  EXPECT_EQ(b.stats().sat_calls, 0u);
  // Over-approximation: every exact path dep is also a structural-mode
  // path dep.
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i)
    for (std::size_t j = 0; j < a.num_circuit_ffs(); ++j)
      if (a.circuit_closure().get(i, j) == DepKind::Path) {
        EXPECT_EQ(b.circuit_closure().get(i, j), DepKind::Path);
      }
}

TEST_F(RunningExampleDeps, CaptureDepsReportScanAttachment) {
  DependencyAnalyzer a = analyze();
  // SF2 (register R1, ff 1) captures F2 directly: a functional capture
  // dependency on F2.
  const auto& deps = a.capture_deps(ex_.r1, 1);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].circuit_ff, ex_.f2);
  EXPECT_EQ(deps[0].kind, DepKind::Path);
}

TEST_F(RunningExampleDeps, SimPrefilterResolvesMostFunctionalDeps) {
  DependencyAnalyzer a = analyze();
  const DepStats& s = a.stats();
  // The simulation witness path must fire (direct wires always witness).
  EXPECT_GT(s.sim_resolved, 0u);
  // The cancelled XOR(F6, F6) dependency is shallow enough for the
  // ternary prefilter (on by default): discharged before SAT.
  EXPECT_GT(s.ternary_resolved, 0u);
  EXPECT_EQ(s.sat_structural, 0u);
  // With the prefilter off, the same pair must go through SAT instead —
  // and land in the same classification.
  DepOptions no_ternary;
  no_ternary.ternary_prefilter = false;
  DependencyAnalyzer b = analyze(no_ternary);
  EXPECT_GT(b.stats().sat_structural, 0u);
  EXPECT_EQ(b.stats().ternary_resolved, 0u);
  EXPECT_TRUE(a.circuit_closure() == b.circuit_closure());
}

/// A 120-scan-FF Mingle network with a random circuit attached.
struct MingleWorkload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;

  MingleWorkload() {
    Rng rng(11);
    const benchgen::BenchmarkProfile& p = benchgen::bastion_profile("Mingle");
    doc = benchgen::generate_bastion(
        p, 120.0 / static_cast<double>(p.scan_ffs), rng);
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
  }
};

TEST(DependencyAnalyzer, RunsOnTheCallingThread) {
  // num_threads has no effect: neither representation starts a pool loop,
  // whatever thread count is asked for.
  MingleWorkload w;
  for (PartitionMode partition : {PartitionMode::Dense, PartitionMode::Tiled}) {
    DepOptions opt;
    opt.num_threads = 4;
    opt.partition = partition;
    DependencyAnalyzer a(w.circuit, w.doc.network, opt);
    obs::TraceSession session;
    obs::TraceSession::set_active(&session);
    a.run();
    obs::TraceSession::set_active(nullptr);
    const char* label = partition_name(partition);
    EXPECT_EQ(a.tiled(), partition == PartitionMode::Tiled) << label;
    EXPECT_EQ(session.counter("dep.runs").value(), 1u) << label;
    EXPECT_EQ(session.counter("pool.loops").value(), 0u) << label;
    for (const obs::SpanEvent& e : session.events())
      EXPECT_NE(e.name, "pool.loop") << label;
  }
}

TEST(DependencyAnalyzer, ConflictLimitStaysSoundAndAccounted) {
  // With a tiny conflict budget some queries may return Unknown; those
  // must be classified conservatively (as Path), so the limited run's
  // path relation is a superset of the exact run's.
  MingleWorkload w;
  DepOptions exact;
  DepOptions limited = exact;
  limited.sat_conflict_limit = 1;
  DependencyAnalyzer a(w.circuit, w.doc.network, exact);
  a.run();
  DependencyAnalyzer b(w.circuit, w.doc.network, limited);
  b.run();
  EXPECT_EQ(b.stats().sat_calls, b.stats().sat_functional +
                                     b.stats().sat_structural +
                                     b.stats().sat_unknown);
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i) {
    for (std::size_t j = 0; j < a.num_circuit_ffs(); ++j) {
      if (a.circuit_closure().get(i, j) == DepKind::Path) {
        EXPECT_EQ(b.circuit_closure().get(i, j), DepKind::Path)
            << i << " -> " << j;
      }
    }
  }
}

}  // namespace
}  // namespace rsnsec::dep
