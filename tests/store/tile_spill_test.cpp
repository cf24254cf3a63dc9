// Out-of-core tier of the tiled matrices: the ArtifactSpillBackend
// round-trips and deduplicates tile blobs through the store, tiled
// analysis snapshots restore bit-identically via run_with_store, and the
// v4 cache key separates matrix representations (their payload formats
// differ).

#include "store/tile_spill.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "dep/analyzer.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "store/dep_cache.hpp"

namespace rsnsec::store {
namespace {

namespace fs = std::filesystem;

using dep::DependencyAnalyzer;
using dep::DepOptions;

fs::path test_root() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() / "rsnsec_tile_spill_tests" /
                 (std::string(info->test_suite_name()) + "." + info->name());
  fs::remove_all(dir);
  return dir;
}

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

TEST(ArtifactSpillBackendTest, RoundTripsAndDeduplicatesTiles) {
  ArtifactStore store(test_root().string());
  ArtifactSpillBackend backend(&store);

  std::string tile_a(sizeof(TiledDepMatrix::Tile), '\x5a');
  std::string tile_b(sizeof(TiledDepMatrix::Tile), '\x33');
  std::string ha = backend.store(tile_a);
  std::string hb = backend.store(tile_b);
  EXPECT_NE(ha, hb);
  // Identical content deduplicates to the identical handle and a single
  // stored object (the all-ones closure block case).
  EXPECT_EQ(backend.store(tile_a), ha);
  EXPECT_EQ(store.disk_stats().objects, 2u);

  std::string out;
  ASSERT_TRUE(backend.fetch(ha, &out));
  EXPECT_EQ(out, tile_a);
  ASSERT_TRUE(backend.fetch(hb, &out));
  EXPECT_EQ(out, tile_b);
  EXPECT_FALSE(backend.fetch(Sha256::hex("no such tile"), &out));
}

TEST(ArtifactSpillBackendTest, SpilledMatrixEncodesAndRestores) {
  ArtifactStore store(test_root().string());
  ArtifactSpillBackend backend(&store);

  const std::size_t n = 400;
  TiledDepMatrix m(n);
  Rng rng(7);
  for (std::size_t e = 0; e < 3 * n; ++e) {
    m.upgrade(rng.below(n), rng.below(n),
              rng.chance(0.5) ? DepKind::Path : DepKind::Structural);
  }
  TiledDepMatrix resident = m;  // detached, fully-resident copy
  // Attaching immediately enforces the budget (one tile), spilling
  // essentially every tile.
  m.set_spill(&backend, sizeof(TiledDepMatrix::Tile));
  EXPECT_GT(m.tiles_spilled(), 0u);

  // The codec walks every tile through acquire(), so spilled tiles are
  // faulted back in transparently and the blob equals the resident one's.
  ByteWriter spilled_bytes;
  encode_tiled_matrix(spilled_bytes, m);
  ByteWriter resident_bytes;
  encode_tiled_matrix(resident_bytes, resident);
  EXPECT_EQ(spilled_bytes.bytes(), resident_bytes.bytes());

  ByteReader r(spilled_bytes.bytes());
  TiledDepMatrix back = decode_tiled_matrix(r);
  r.expect_end();
  EXPECT_TRUE(back.to_dense() == resident.to_dense());
}

TEST(TiledDepCacheTest, TiledSnapshotRestoresBitIdentically) {
  Workload w("Mingle");
  DepOptions opt;
  opt.partition = dep::PartitionMode::Tiled;
  ArtifactStore store(test_root().string());

  DependencyAnalyzer cold(w.circuit, w.doc.network, opt);
  EXPECT_FALSE(run_with_store(&store, cold));

  DependencyAnalyzer warm(w.circuit, w.doc.network, opt);
  EXPECT_TRUE(run_with_store(&store, warm));
  EXPECT_TRUE(warm.tiled());
  EXPECT_EQ(warm.stats().t_one_cycle, 0.0);  // served, not computed
  EXPECT_TRUE(warm.one_cycle_tiled().to_dense() ==
              cold.one_cycle_tiled().to_dense());
  EXPECT_TRUE(warm.circuit_closure_tiled().to_dense() ==
              cold.circuit_closure_tiled().to_dense());
  EXPECT_EQ(warm.stats().closure_deps, cold.stats().closure_deps);
  EXPECT_EQ(warm.stats().closure_path_deps, cold.stats().closure_path_deps);
  EXPECT_EQ(warm.stats().sat_calls, cold.stats().sat_calls);
  // regions is recomputed live (pure function of the circuit), and the
  // footprint is refreshed from the restored matrices.
  EXPECT_EQ(warm.stats().regions, cold.stats().regions);
  EXPECT_EQ(warm.stats().tiles_nonzero, cold.stats().tiles_nonzero);
  EXPECT_GT(warm.stats().matrix_bytes, 0u);
  // memory_bytes is content-derived, so the restored footprint must match
  // the computed one exactly — otherwise warm analyze reports diverge
  // from cold ones on tiled workloads.
  EXPECT_EQ(warm.stats().matrix_bytes, cold.stats().matrix_bytes);
}

TEST(TiledDepCacheTest, CacheKeySeparatesRepresentations) {
  Workload w("BasicSCB");
  DepOptions opt;
  opt.partition = dep::PartitionMode::Auto;
  std::string k_auto = dep_cache_key(w.circuit, w.doc.network, opt);
  opt.partition = dep::PartitionMode::Dense;
  std::string k_dense = dep_cache_key(w.circuit, w.doc.network, opt);
  opt.partition = dep::PartitionMode::Tiled;
  std::string k_tiled = dep_cache_key(w.circuit, w.doc.network, opt);
  EXPECT_NE(k_auto, k_dense);
  EXPECT_NE(k_auto, k_tiled);
  EXPECT_NE(k_dense, k_tiled);

  // The spill budget is an execution knob: any budget, same key (the
  // snapshot is always fully resident).
  opt.tile_spill_budget = 1 << 20;
  EXPECT_EQ(dep_cache_key(w.circuit, w.doc.network, opt), k_tiled);
}

TEST(TiledDepCacheTest, TamperedRepresentationFlagIsRejected) {
  Workload w("BasicSCB");
  DepOptions opt;
  opt.partition = dep::PartitionMode::Tiled;
  DependencyAnalyzer a(w.circuit, w.doc.network, opt);
  a.run();

  ByteWriter wtr;
  encode_dep_snapshot(wtr, a.snapshot());
  std::string bytes = wtr.bytes();
  // The representation flag sits right after the internal-FF bit vector:
  // varint(n) (one byte for n < 128) + ceil(n/64) fixed64 words.
  std::size_t n = a.num_circuit_ffs();
  ASSERT_LT(n, 128u);
  std::size_t flag_off = 1 + ((n + 63) / 64) * 8;
  ASSERT_EQ(bytes[flag_off], 1);  // tiled
  bytes[flag_off] = 2;
  ByteReader r(bytes);
  EXPECT_THROW((void)decode_dep_snapshot(r), CodecError);
}

TEST(TiledDepCacheTest, MismatchedRepresentationBlobIsDiscarded) {
  // A tiled analyzer must never restore a dense snapshot (and vice
  // versa); with the v4 key split this can only happen if a blob is
  // planted under the wrong key — which restore() then refuses.
  Workload w("Mingle");
  DepOptions dense_opt;
  dense_opt.partition = dep::PartitionMode::Dense;
  DependencyAnalyzer dense(w.circuit, w.doc.network, dense_opt);
  dense.run();

  DepOptions tiled_opt;
  tiled_opt.partition = dep::PartitionMode::Tiled;
  ArtifactStore store(test_root().string());
  std::string tiled_key = dep_cache_key(w.circuit, w.doc.network, tiled_opt);
  ByteWriter wtr;
  encode_dep_snapshot(wtr, dense.snapshot());
  store.put(tiled_key, wtr.bytes());

  DependencyAnalyzer tiled(w.circuit, w.doc.network, tiled_opt);
  // The planted dense blob is rejected and the analysis recomputed.
  EXPECT_FALSE(run_with_store(&store, tiled));
  EXPECT_TRUE(tiled.tiled());
  EXPECT_TRUE(tiled.circuit_closure_tiled().to_dense() ==
              dense.circuit_closure());
}

}  // namespace
}  // namespace rsnsec::store
