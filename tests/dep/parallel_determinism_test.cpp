// Determinism guarantee of the parallel dependency engine: any thread
// count yields bit-identical matrices, capture dependencies and counters
// (per-cone RNG streams + deterministic reduction order).

#include <gtest/gtest.h>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "dep/analyzer.hpp"

namespace rsnsec::dep {

// Namespace scope (not the anonymous namespace) so ADL finds it from
// std::vector's element-wise comparison.
static bool operator==(const CaptureDep& a, const CaptureDep& b) {
  return a.circuit_ff == b.circuit_ff && a.kind == b.kind;
}

namespace {

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;

  explicit Workload(const std::string& family, double target_ffs = 120) {
    Rng rng(11);
    const benchgen::BenchmarkProfile& p = benchgen::bastion_profile(family);
    double scale = target_ffs / static_cast<double>(p.scan_ffs);
    if (scale > 1.0) scale = 1.0;
    doc = benchgen::generate_bastion(p, scale, rng);
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
  }
};

void expect_identical(const Workload& w, const DependencyAnalyzer& a,
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
  EXPECT_EQ(sa.circuit_ffs, sb.circuit_ffs) << label;
  EXPECT_EQ(sa.internal_ffs, sb.internal_ffs) << label;
  EXPECT_EQ(sa.denoted_ffs_before, sb.denoted_ffs_before) << label;
  EXPECT_EQ(sa.denoted_ffs_after, sb.denoted_ffs_after) << label;
  EXPECT_EQ(sa.deps_before_bridging, sb.deps_before_bridging) << label;
  EXPECT_EQ(sa.deps_after_bridging, sb.deps_after_bridging) << label;
  EXPECT_EQ(sa.closure_deps, sb.closure_deps) << label;
  EXPECT_EQ(sa.closure_path_deps, sb.closure_path_deps) << label;
  // Even the prefilter/SAT counters match: every cone draws from its own
  // hash(seed, cone index) stream, so its patterns are identical no
  // matter which thread classified it.
  EXPECT_EQ(sa.sim_resolved, sb.sim_resolved) << label;
  EXPECT_EQ(sa.sat_calls, sb.sat_calls) << label;
  EXPECT_EQ(sa.sat_functional, sb.sat_functional) << label;
  EXPECT_EQ(sa.sat_structural, sb.sat_structural) << label;
  EXPECT_EQ(sa.sat_unknown, sb.sat_unknown) << label;
}

TEST(ParallelDeterminism, OneVsEightThreadsOnBastionFamilies) {
  for (const char* family : {"BasicSCB", "Mingle", "TreeFlat",
                             "TreeBalanced"}) {
    Workload w(family);
    DepOptions one;
    one.num_threads = 1;
    DepOptions eight = one;
    eight.num_threads = 8;
    DependencyAnalyzer a(w.circuit, w.doc.network, one);
    a.run();
    DependencyAnalyzer b(w.circuit, w.doc.network, eight);
    b.run();
    EXPECT_EQ(a.stats().threads_used, 1u);
    EXPECT_EQ(b.stats().threads_used, 8u);
    expect_identical(w, a, b, family);
  }
}

TEST(ParallelDeterminism, ConflictLimitStaysSoundAndAccounted) {
  // With a tiny conflict budget some queries may return Unknown; those
  // must be classified conservatively (as Path), so the limited run's
  // path relation is a superset of the exact run's.
  Workload w("Mingle");
  DepOptions exact;
  exact.num_threads = 2;
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
