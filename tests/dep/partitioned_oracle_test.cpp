// Bit-identity of the tiled + region-partitioned analysis against the
// dense oracle: on every BASTION family and an MBIST array, a forced
// Tiled run produces exactly the dense run's matrices, capture
// dependencies and classification counters — at one and at eight threads,
// and with tiles spilling through a backend under a tiny residency
// budget. This is the acceptance gate of the partitioned engine: the
// representation is allowed to change footprint fields only.

#include <gtest/gtest.h>

#include <stdexcept>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "dep/analyzer.hpp"
#include "util/tiled_matrix.hpp"

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
    if (family.rfind("MBIST", 0) == 0) {
      doc = benchgen::generate_mbist(2, 3, 2, 1.0);
    } else {
      const benchgen::BenchmarkProfile& p =
          benchgen::bastion_profile(family);
      double scale = target_ffs / static_cast<double>(p.scan_ffs);
      if (scale > 1.0) scale = 1.0;
      doc = benchgen::generate_bastion(p, scale, rng);
    }
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
  }
};

DependencyAnalyzer run_analysis(const Workload& w, const DepOptions& opt) {
  DependencyAnalyzer a(w.circuit, w.doc.network, opt);
  a.run();
  return a;
}

/// Everything the tiled run must replicate bit for bit. The footprint
/// fields (regions, matrix_bytes, tiles_*) and the run-shape fields
/// (threads_used, t_*) are representation- or execution-dependent by
/// design and deliberately not compared.
void expect_same_result(const Workload& w, const DependencyAnalyzer& dense,
                        const DependencyAnalyzer& tiled, const char* label) {
  ASSERT_FALSE(dense.tiled()) << label;
  ASSERT_TRUE(tiled.tiled()) << label;
  EXPECT_TRUE(tiled.one_cycle_tiled().to_dense() == dense.one_cycle())
      << label;
  EXPECT_TRUE(tiled.circuit_closure_tiled().to_dense() ==
              dense.circuit_closure())
      << label;
  for (std::size_t i = 0; i < dense.num_circuit_ffs(); ++i) {
    EXPECT_EQ(tiled.closure_path_successors(i),
              dense.closure_path_successors(i))
        << label << " row " << i;
  }
  for (rsn::ElemId r : w.doc.network.registers()) {
    const rsn::Element& e = w.doc.network.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      EXPECT_TRUE(tiled.capture_deps(r, f) == dense.capture_deps(r, f))
          << label << " register " << r << " ff " << f;
    }
  }
  const DepStats &sd = dense.stats(), &st = tiled.stats();
  EXPECT_EQ(st.circuit_ffs, sd.circuit_ffs) << label;
  EXPECT_EQ(st.internal_ffs, sd.internal_ffs) << label;
  EXPECT_EQ(st.denoted_ffs_before, sd.denoted_ffs_before) << label;
  EXPECT_EQ(st.denoted_ffs_after, sd.denoted_ffs_after) << label;
  EXPECT_EQ(st.deps_before_bridging, sd.deps_before_bridging) << label;
  EXPECT_EQ(st.deps_after_bridging, sd.deps_after_bridging) << label;
  EXPECT_EQ(st.closure_deps, sd.closure_deps) << label;
  EXPECT_EQ(st.closure_path_deps, sd.closure_path_deps) << label;
  EXPECT_EQ(st.sim_resolved, sd.sim_resolved) << label;
  EXPECT_EQ(st.ternary_resolved, sd.ternary_resolved) << label;
  EXPECT_EQ(st.sat_calls, sd.sat_calls) << label;
  EXPECT_EQ(st.sat_functional, sd.sat_functional) << label;
  EXPECT_EQ(st.sat_structural, sd.sat_structural) << label;
  EXPECT_EQ(st.sat_unknown, sd.sat_unknown) << label;
  EXPECT_EQ(st.cone_cache_hits, sd.cone_cache_hits) << label;
  // Solver work counters too: the matrix representation sits entirely
  // behind the cone classification, so not even the SAT effort may move.
  EXPECT_EQ(st.solver_solves, sd.solver_solves) << label;
  EXPECT_EQ(st.solver_conflicts, sd.solver_conflicts) << label;
  EXPECT_EQ(st.cores_reused, sd.cores_reused) << label;
  EXPECT_EQ(st.rotation_witnesses, sd.rotation_witnesses) << label;
}

TEST(PartitionedOracle, TiledMatchesDenseOnAllFamilies) {
  std::vector<std::string> names;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
    names.push_back(p.name);
  names.push_back("MBIST_2_3_2");
  for (const std::string& family : names) {
    Workload w(family);
    DepOptions dense_opt;
    dense_opt.partition = PartitionMode::Dense;
    dense_opt.num_threads = 1;
    DepOptions tiled_opt = dense_opt;
    tiled_opt.partition = PartitionMode::Tiled;
    DependencyAnalyzer dense = run_analysis(w, dense_opt);
    DependencyAnalyzer tiled1 = run_analysis(w, tiled_opt);
    expect_same_result(w, dense, tiled1, family.c_str());
    tiled_opt.num_threads = 8;
    DependencyAnalyzer tiled8 = run_analysis(w, tiled_opt);
    EXPECT_EQ(tiled8.stats().threads_used, 8u) << family;
    expect_same_result(w, dense, tiled8, (family + " @8").c_str());
    // The partition is a pure function of the circuit — identical at any
    // thread count.
    EXPECT_EQ(tiled1.stats().regions, tiled8.stats().regions) << family;
    EXPECT_GE(tiled1.stats().regions, 1u) << family;
  }
}

TEST(PartitionedOracle, SpillBudgetDoesNotChangeTheResult) {
  for (const char* family : {"Mingle", "TreeBalanced", "MBIST_2_3_2"}) {
    Workload w(family);
    DepOptions dense_opt;
    dense_opt.partition = PartitionMode::Dense;
    DepOptions spill_opt;
    spill_opt.partition = PartitionMode::Tiled;
    // A budget of one tile per matrix: essentially everything evicts, so
    // every kernel exercises the fault-in path.
    spill_opt.tile_spill_budget = sizeof(TiledDepMatrix::Tile);
    InMemorySpillBackend backend;
    spill_opt.spill_backend = &backend;
    DependencyAnalyzer dense = run_analysis(w, dense_opt);
    DependencyAnalyzer spilled = run_analysis(w, spill_opt);
    expect_same_result(w, dense, spilled, family);
    EXPECT_GT(spilled.stats().tiles_spilled, 0u) << family;
  }
}

TEST(PartitionedOracle, AutoSwitchesToTiledOnLargeCircuits) {
  // StructuralOnly keeps the large instance fast (no SAT) — the switch
  // under test happens before any classification work.
  Workload small("Mingle");
  DepOptions opt;
  opt.mode = DepMode::StructuralOnly;
  DependencyAnalyzer a(small.circuit, small.doc.network, opt);
  EXPECT_FALSE(a.tiled());

  Rng rng(3);
  rsn::RsnDocument doc = benchgen::generate_mbist(16, 4, 4, 1.0);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  ASSERT_GE(circuit.ffs().size(), 4096u);
  DependencyAnalyzer b(circuit, doc.network, opt);
  EXPECT_TRUE(b.tiled());
  b.run();
  EXPECT_GT(b.stats().regions, 1u);
  EXPECT_GT(b.stats().tiles_nonzero, 0u);

  // The representation-mismatched accessors refuse instead of returning a
  // wrong-shaped matrix.
  EXPECT_THROW((void)b.circuit_closure(), std::logic_error);
  EXPECT_THROW((void)b.one_cycle(), std::logic_error);
  DependencyAnalyzer c(small.circuit, small.doc.network, opt);
  c.run();
  EXPECT_THROW((void)c.circuit_closure_tiled(), std::logic_error);
  EXPECT_THROW((void)c.one_cycle_tiled(), std::logic_error);
}

TEST(PartitionedOracle, TiledFullPipelineClassifiesIdentically) {
  // closure_at + closure_path_successors are what the security layer
  // consumes; cross-check them against the dense entries directly.
  Workload w("TreeUnbalanced");
  DepOptions dense_opt;
  dense_opt.partition = PartitionMode::Dense;
  DepOptions tiled_opt;
  tiled_opt.partition = PartitionMode::Tiled;
  DependencyAnalyzer dense = run_analysis(w, dense_opt);
  DependencyAnalyzer tiled = run_analysis(w, tiled_opt);
  for (std::size_t i = 0; i < dense.num_circuit_ffs(); ++i)
    for (std::size_t j = 0; j < dense.num_circuit_ffs(); ++j)
      ASSERT_EQ(tiled.closure_at(i, j), dense.circuit_closure().get(i, j))
          << i << " -> " << j;
}

}  // namespace
}  // namespace rsnsec::dep
