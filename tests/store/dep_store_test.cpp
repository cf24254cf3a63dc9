// End-to-end contract of the dependency-analysis cache: a warm start
// served from the artifact store is bit-identical to recomputation on
// every BASTION family, the cache key tracks exactly the inputs that can
// change the result, and a warm pipeline run performs zero dependency
// work (no SAT calls) — the acceptance criterion of the store subsystem.

#include "store/dep_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "core/tool.hpp"
#include "obs/trace.hpp"
#include "store/artifact_store.hpp"

namespace rsnsec::dep {
// Namespace scope so ADL finds it from std::vector's element-wise
// comparison (same technique as parallel_determinism_test.cpp).
static bool operator==(const CaptureDep& a, const CaptureDep& b) {
  return a.circuit_ff == b.circuit_ff && a.kind == b.kind;
}
}  // namespace rsnsec::dep

namespace rsnsec::store {
namespace {

namespace fs = std::filesystem;

using dep::DependencyAnalyzer;
using dep::DepOptions;
using dep::DepStats;

fs::path test_root() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() / "rsnsec_store_tests" /
                 (std::string(info->test_suite_name()) + "." + info->name());
  fs::remove_all(dir);
  return dir;
}

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;

  explicit Workload(const std::string& family, std::uint64_t seed = 11,
                    double target_ffs = 60) {
    Rng rng(seed);
    const benchgen::BenchmarkProfile& p = benchgen::bastion_profile(family);
    double scale = target_ffs / static_cast<double>(p.scan_ffs);
    if (scale > 1.0) scale = 1.0;
    doc = benchgen::generate_bastion(p, scale, rng);
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
  }
};

/// Full logical-result comparison: matrices, capture dependencies and
/// every DepStats counter. Timings and threads_used are excluded — a
/// replayed analysis does no work, so they legitimately differ.
void expect_identical(const Workload& w, const DependencyAnalyzer& a,
                      const DependencyAnalyzer& b, const char* label) {
  EXPECT_TRUE(a.one_cycle() == b.one_cycle()) << label;
  EXPECT_TRUE(a.circuit_closure() == b.circuit_closure()) << label;
  ASSERT_EQ(a.num_circuit_ffs(), b.num_circuit_ffs()) << label;
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i)
    EXPECT_EQ(a.is_internal(i), b.is_internal(i)) << label << " ff " << i;
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
  EXPECT_EQ(sa.sim_resolved, sb.sim_resolved) << label;
  EXPECT_EQ(sa.sat_calls, sb.sat_calls) << label;
  EXPECT_EQ(sa.sat_functional, sb.sat_functional) << label;
  EXPECT_EQ(sa.sat_structural, sb.sat_structural) << label;
  EXPECT_EQ(sa.sat_unknown, sb.sat_unknown) << label;
  EXPECT_EQ(sa.cone_cache_hits, sb.cone_cache_hits) << label;
  EXPECT_EQ(sa.solver_solves, sb.solver_solves) << label;
  EXPECT_EQ(sa.solver_conflicts, sb.solver_conflicts) << label;
  EXPECT_EQ(sa.solver_propagations, sb.solver_propagations) << label;
  EXPECT_EQ(sa.cores_reused, sb.cores_reused) << label;
  EXPECT_EQ(sa.rotation_witnesses, sb.rotation_witnesses) << label;
}

// The ISSUE's acceptance criterion: on ALL BASTION families, an analysis
// served from the store is bit-identical to recomputation.
TEST(DepStore, WarmStartBitIdenticalOnAllBastionFamilies) {
  ArtifactStore store(test_root());
  std::uint64_t runs = 0;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles()) {
    Workload w(p.name);
    DependencyAnalyzer cold(w.circuit, w.doc.network, {});
    EXPECT_FALSE(run_with_store(&store, cold)) << p.name;  // miss: computes

    DependencyAnalyzer warm(w.circuit, w.doc.network, {});
    EXPECT_TRUE(run_with_store(&store, warm)) << p.name;  // hit: replays
    EXPECT_EQ(warm.stats().threads_used, 0u) << p.name;
    EXPECT_EQ(warm.stats().t_one_cycle, 0.0) << p.name;
    expect_identical(w, cold, warm, p.name.c_str());
    ++runs;
    EXPECT_EQ(store.counters().hits, runs);
    EXPECT_EQ(store.counters().misses, runs);
  }
  EXPECT_EQ(runs, 13u);  // all published BASTION families covered
}

TEST(DepStore, WarmStartSurvivesProcessBoundary) {
  // A second store instance over the same root models a fresh process:
  // no memory tier carry-over, the blob comes from disk.
  fs::path root = test_root();
  Workload w("Mingle");
  {
    ArtifactStore store(root);
    DependencyAnalyzer cold(w.circuit, w.doc.network, {});
    ASSERT_FALSE(run_with_store(&store, cold));
  }
  ArtifactStore store(root);
  DependencyAnalyzer warm(w.circuit, w.doc.network, {});
  EXPECT_TRUE(run_with_store(&store, warm));

  DependencyAnalyzer reference(w.circuit, w.doc.network, {});
  reference.run();
  expect_identical(w, reference, warm, "Mingle across processes");
}

TEST(DepStore, NullStoreDegradesToPlainRun) {
  Workload w("BasicSCB");
  DependencyAnalyzer a(w.circuit, w.doc.network, {});
  EXPECT_FALSE(run_with_store(nullptr, a));
  EXPECT_GT(a.stats().circuit_ffs, 0u);
}

TEST(DepStore, KeyIgnoresThreadCountOnly) {
  Workload w("BasicSCB");
  DepOptions base;
  std::string k = dep_cache_key(w.circuit, w.doc.network, base);
  EXPECT_TRUE(is_store_key(k));

  // num_threads is presentation, not semantics: any thread count yields
  // bit-identical results (PR 2), so all counts share one entry.
  DepOptions threads = base;
  threads.num_threads = 8;
  EXPECT_EQ(dep_cache_key(w.circuit, w.doc.network, threads), k);

  // Every result-affecting knob must change the key.
  DepOptions seed = base;
  seed.seed = 99;
  EXPECT_NE(dep_cache_key(w.circuit, w.doc.network, seed), k);
  DepOptions mode = base;
  mode.mode = dep::DepMode::StructuralOnly;
  EXPECT_NE(dep_cache_key(w.circuit, w.doc.network, mode), k);
  DepOptions bridge = base;
  bridge.bridge_internal = false;
  EXPECT_NE(dep_cache_key(w.circuit, w.doc.network, bridge), k);
  DepOptions conflicts = base;
  conflicts.sat_conflict_limit = 1;
  EXPECT_NE(dep_cache_key(w.circuit, w.doc.network, conflicts), k);

  // Different inputs, different key.
  Workload other("TreeFlat");
  EXPECT_NE(dep_cache_key(other.circuit, other.doc.network, base), k);
  EXPECT_NE(dep_cache_key(w.circuit, other.doc.network, base), k);
}

TEST(DepStore, GarbagePayloadUnderValidEnvelopeIsRecomputed) {
  ArtifactStore store(test_root());
  Workload w("BasicSCB");
  DependencyAnalyzer probe(w.circuit, w.doc.network, {});
  std::string key =
      dep_cache_key(w.circuit, w.doc.network, probe.options());
  // A blob whose envelope checks out but whose payload is not a snapshot:
  // must be discarded as corrupt and the analysis recomputed — exactly
  // one miss, never a crash or a poisoned retry loop.
  store.put(key, "these bytes are not an analysis snapshot");

  DependencyAnalyzer a(w.circuit, w.doc.network, {});
  EXPECT_FALSE(run_with_store(&store, a));
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_EQ(store.counters().misses, 1u);
  EXPECT_EQ(store.counters().hits, 0u);

  // The recomputed result was republished; the next run hits.
  DependencyAnalyzer b(w.circuit, w.doc.network, {});
  EXPECT_TRUE(run_with_store(&store, b));
  expect_identical(w, a, b, "after corruption");
}

TEST(DepStore, ShapeMismatchedSnapshotIsRecomputed) {
  ArtifactStore store(test_root());
  Workload small("BasicSCB");
  Workload big("TreeFlat");
  // Publish a structurally valid snapshot of the *wrong* workload under
  // the key of `big`: decode succeeds, restore() must reject the shapes.
  DependencyAnalyzer donor(small.circuit, small.doc.network, {});
  donor.run();
  ByteWriter blob;
  encode_dep_snapshot(blob, donor.snapshot());
  std::string key =
      dep_cache_key(big.circuit, big.doc.network, donor.options());
  store.put(key, blob.bytes());

  DependencyAnalyzer a(big.circuit, big.doc.network, {});
  EXPECT_FALSE(run_with_store(&store, a));
  EXPECT_EQ(store.counters().corrupt, 1u);
  DependencyAnalyzer reference(big.circuit, big.doc.network, {});
  reference.run();
  expect_identical(big, reference, a, "after shape mismatch");
}

TEST(DepStore, SnapshotCodecRejectsTruncation) {
  Workload w("BasicSCB");
  DependencyAnalyzer a(w.circuit, w.doc.network, {});
  a.run();
  ByteWriter blob;
  encode_dep_snapshot(blob, a.snapshot());
  const std::string& full = blob.bytes();
  // Step 7 keeps this sweep fast; truncation anywhere must throw.
  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    std::string prefix = full.substr(0, cut);  // keep the view's storage alive
    ByteReader r(prefix);
    EXPECT_THROW(
        {
          decode_dep_snapshot(r);
          r.expect_end();
        },
        CodecError)
        << "prefix length " << cut;
  }
}

// Warm pipeline: the dependency phase performs zero analysis work. This
// is asserted through the obs counters — on a hit, DependencyAnalyzer::
// run() never executes, so no dep.* counter (sat_calls in particular)
// is ever bumped.
TEST(DepStore, WarmPipelineRunsZeroSatCalls) {
  ArtifactStore store(test_root());
  Workload cold_w("Mingle", 7);
  Workload warm_w("Mingle", 7);  // same seed: identical inputs
  Rng spec_rng(3);
  benchgen::SpecOptions sopt;
  sopt.restrict_prob = 0.4;
  security::SecuritySpec spec = benchgen::random_spec(
      cold_w.doc.module_names.size(), sopt, spec_rng);

  PipelineOptions popt;
  popt.store = &store;

  obs::TraceSession cold_session;
  obs::TraceSession::set_active(&cold_session);
  SecureFlowTool cold_tool(cold_w.circuit, cold_w.doc.network, spec, popt);
  PipelineResult cold = cold_tool.run();
  obs::TraceSession::set_active(nullptr);
  EXPECT_EQ(cold_session.counter("store.misses").value(), 1u);
  EXPECT_EQ(cold_session.counter("dep.runs").value(), 1u);

  obs::TraceSession warm_session;
  obs::TraceSession::set_active(&warm_session);
  SecureFlowTool warm_tool(warm_w.circuit, warm_w.doc.network, spec, popt);
  PipelineResult warm = warm_tool.run();
  obs::TraceSession::set_active(nullptr);

  EXPECT_EQ(warm_session.counter("store.hits").value(), 1u);
  EXPECT_EQ(warm_session.counter("store.misses").value(), 0u);
  EXPECT_EQ(warm_session.counter("dep.runs").value(), 0u);
  EXPECT_EQ(warm_session.counter("dep.sat_calls").value(), 0u);

  // Everything downstream of the dependency phase is deterministic, so
  // the warm run's outcome matches the cold one exactly — including the
  // transformed network, compared via its canonical encoding.
  EXPECT_EQ(warm.secured, cold.secured);
  EXPECT_EQ(warm.dep_stats.sat_calls, cold.dep_stats.sat_calls);
  EXPECT_EQ(warm.dep_stats.closure_deps, cold.dep_stats.closure_deps);
  EXPECT_EQ(warm.total_changes(), cold.total_changes());
  ByteWriter cold_rsn, warm_rsn;
  encode_rsn(cold_rsn, cold_w.doc.network);
  encode_rsn(warm_rsn, warm_w.doc.network);
  EXPECT_EQ(cold_rsn.bytes(), warm_rsn.bytes());
}

}  // namespace
}  // namespace rsnsec::store
