#include "util/tiled_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/dep_matrix.hpp"
#include "util/rng.hpp"

namespace rsnsec {
namespace {

/// Random sparse relation with the given edge density (per mille), mirrored
/// into a dense and a tiled matrix. Densities span "a few edges" to "most
/// tiles denoted" so both the tile-skipping and the tile-dense code paths
/// are exercised.
void fill_random(std::size_t n, std::uint32_t per_mille, Rng& rng,
                 DepMatrix* dense, TiledDepMatrix* tiled) {
  *dense = DepMatrix(n);
  *tiled = TiledDepMatrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.below(1000) >= per_mille) continue;
      const DepKind k =
          rng.below(3) == 0 ? DepKind::Structural : DepKind::Path;
      dense->upgrade(i, j, k);
      tiled->upgrade(i, j, k);
    }
  }
}

void expect_same(const DepMatrix& dense, const TiledDepMatrix& tiled) {
  ASSERT_EQ(dense.size(), tiled.size());
  const DepMatrix back = tiled.to_dense();
  EXPECT_TRUE(dense == back);
  EXPECT_EQ(dense.count_nonzero(), tiled.count_nonzero());
  EXPECT_EQ(dense.count_path(), tiled.count_path());
}

TEST(TiledDepMatrix, SetGetUpgradeMirrorsDense) {
  TiledDepMatrix m(130);
  EXPECT_EQ(m.get(0, 129), DepKind::None);
  m.upgrade(0, 129, DepKind::Structural);
  EXPECT_EQ(m.get(0, 129), DepKind::Structural);
  m.upgrade(0, 129, DepKind::Path);
  EXPECT_EQ(m.get(0, 129), DepKind::Path);
  m.upgrade(0, 129, DepKind::Structural);  // never downgrades
  EXPECT_EQ(m.get(0, 129), DepKind::Path);
  EXPECT_EQ(m.tiles_nonzero(), 1u);
  m.set(0, 129, DepKind::None);
  EXPECT_EQ(m.get(0, 129), DepKind::None);
  // Zeroing the last entry prunes the tile.
  EXPECT_EQ(m.tiles_nonzero(), 0u);
  EXPECT_EQ(m.count_nonzero(), 0u);
}

TEST(TiledDepMatrix, ClearNodeClearsRowAndColumn) {
  Rng rng(7);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(200, 30, rng, &dense, &tiled);
  dense.clear_node(65);
  tiled.clear_node(65);
  expect_same(dense, tiled);
  EXPECT_TRUE(tiled.successors(65).empty());
}

TEST(TiledDepMatrix, DenseRoundTrip) {
  Rng rng(11);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(190, 50, rng, &dense, &tiled);
  const TiledDepMatrix from = TiledDepMatrix::from_dense(dense);
  EXPECT_TRUE(from == tiled);
  EXPECT_TRUE(from.to_dense() == dense);
}

TEST(TiledDepMatrix, SuccessorsMatchDense) {
  Rng rng(13);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(140, 40, rng, &dense, &tiled);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense.successors(i), tiled.successors(i));
    std::vector<std::size_t> path;
    for (std::size_t j = 0; j < dense.size(); ++j) {
      if (dense.get(i, j) == DepKind::Path) path.push_back(j);
    }
    std::vector<std::size_t> dense_scan, tiled_scan;
    dense.for_each_path_successor(
        i, [&](std::size_t j) { dense_scan.push_back(j); });
    tiled.for_each_path_successor(
        i, [&](std::size_t j) { tiled_scan.push_back(j); });
    EXPECT_EQ(path, dense_scan) << "row " << i;
    EXPECT_EQ(path, tiled_scan) << "row " << i;
  }
}

TEST(TiledDepMatrix, ForEachEntryAscendingAndComplete) {
  Rng rng(17);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(100, 25, rng, &dense, &tiled);
  std::size_t seen = 0;
  std::size_t last_i = 0;
  std::size_t last_j = 0;
  bool first = true;
  tiled.for_each_entry([&](std::size_t i, std::size_t j, DepKind k) {
    EXPECT_EQ(dense.get(i, j), k);
    if (!first) {
      EXPECT_TRUE(i > last_i || (i == last_i && j > last_j));
    }
    first = false;
    last_i = i;
    last_j = j;
    ++seen;
  });
  EXPECT_EQ(seen, dense.count_nonzero());
}

TEST(TiledDepMatrix, TransitiveClosureMatchesDense) {
  Rng rng(23);
  for (std::uint32_t per_mille : {2, 10, 60, 300}) {
    for (std::size_t n : {1, 63, 64, 65, 200, 320}) {
      DepMatrix dense;
      TiledDepMatrix tiled;
      fill_random(n, per_mille, rng, &dense, &tiled);
      dense.transitive_closure();
      tiled.transitive_closure();
      expect_same(dense, tiled);
    }
  }
}

TEST(TiledDepMatrix, TransitiveClosureWithActiveMaskMatchesDense) {
  Rng rng(29);
  for (int trial = 0; trial < 8; ++trial) {
    DepMatrix dense;
    TiledDepMatrix tiled;
    fill_random(170, 40, rng, &dense, &tiled);
    std::vector<bool> active(170);
    for (std::size_t i = 0; i < active.size(); ++i) {
      active[i] = rng.below(2) == 0;
    }
    dense.transitive_closure(&active);
    tiled.transitive_closure(&active);
    expect_same(dense, tiled);
  }
}

TEST(TiledDepMatrix, EliminateMatchesDense) {
  Rng rng(43);
  for (int trial = 0; trial < 6; ++trial) {
    DepMatrix dense;
    TiledDepMatrix tiled;
    fill_random(160, 50, rng, &dense, &tiled);
    // Eliminate a random third of the nodes, same order on both sides.
    for (std::size_t v = 0; v < dense.size(); ++v) {
      if (rng.below(3) != 0) continue;
      dense.eliminate(v);
      tiled.eliminate(v);
    }
    expect_same(dense, tiled);
  }
}

TEST(TiledDepMatrix, EliminateSelfLoopAndDiagonalRules) {
  // Worked case: a -> v -> b with v self-looped and an edge back v -> a.
  // Bridging v must produce a -> b, keep (a, a) clear (p->v->p is a cycle
  // through v, not a self-dependency) — same as the dense kernel.
  DepMatrix dense(70);
  TiledDepMatrix tiled(70);
  auto both = [&](std::size_t i, std::size_t j, DepKind k) {
    dense.upgrade(i, j, k);
    tiled.upgrade(i, j, k);
  };
  both(0, 65, DepKind::Path);    // a -> v
  both(65, 65, DepKind::Path);   // v self-loop
  both(65, 0, DepKind::Path);    // v -> a
  both(65, 68, DepKind::Structural);  // v -> b
  dense.eliminate(65);
  tiled.eliminate(65);
  expect_same(dense, tiled);
  EXPECT_EQ(tiled.get(0, 0), DepKind::None);
  EXPECT_EQ(tiled.get(0, 68), DepKind::Structural);
  // The diagonal rule created tile (0, 0) for (a, a) alone and left it
  // empty; it must be pruned, leaving only tile (0, 1).
  EXPECT_EQ(tiled.tiles_nonzero(), 1u);
}

/// Tiles for_each_tile visits. It skips all-zero tiles, so the count
/// equals tiles_nonzero() exactly when no stored tile is zero. Faults
/// every spilled tile in.
std::size_t visited_tiles(const TiledDepMatrix& m) {
  std::size_t c = 0;
  m.for_each_tile(
      [&](std::size_t, std::size_t, const TiledDepMatrix::Tile&) { ++c; });
  return c;
}

TEST(TiledDepMatrix, NoStoredTileIsZeroAfterRandomKernelSequences) {
  // clear_node prunes only its own block row and column, and eliminate
  // also the diagonal tile its diagonal rule leaves empty; every other
  // stored tile must already be non-zero. Under a spill budget the
  // resident count must stay exact: with every tile faulted in, one
  // checkpoint leaves exactly min(budget, tiles) resident.
  constexpr std::size_t kBudgetTiles = 3;
  for (bool spill : {false, true}) {
    Rng rng(spill ? 71 : 73);
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t n = 256 + rng.below(512);
      DepMatrix dense(n);
      TiledDepMatrix tiled(n);
      // About one edge per tile, so tiles holding a single column or a
      // single 2-cycle are common.
      const std::size_t edges =
          n / 4 + rng.below(static_cast<std::uint32_t>(n / 4));
      for (std::size_t e = 0; e < edges; ++e) {
        const std::size_t i = rng.below(static_cast<std::uint32_t>(n));
        const std::size_t j = rng.below(static_cast<std::uint32_t>(n));
        const DepKind k =
            rng.below(3) == 0 ? DepKind::Structural : DepKind::Path;
        dense.upgrade(i, j, k);
        tiled.upgrade(i, j, k);
        if (rng.below(2) == 0) {
          dense.upgrade(j, i, k);
          tiled.upgrade(j, i, k);
        }
      }
      InMemorySpillBackend backend;
      if (spill) {
        tiled.set_spill(&backend,
                        kBudgetTiles * sizeof(TiledDepMatrix::Tile));
      }
      for (int step = 0; step < 60; ++step) {
        const std::size_t v = rng.below(static_cast<std::uint32_t>(n));
        const std::uint32_t op = rng.below(20);
        if (op < 4) {
          dense.clear_node(v);
          tiled.clear_node(v);
        } else if (op == 4) {
          std::vector<bool> active(n);
          for (std::size_t i = 0; i < n; ++i) active[i] = rng.below(4) != 0;
          dense.transitive_closure(&active);
          tiled.transitive_closure(&active);
        } else {
          dense.eliminate(v);
          tiled.eliminate(v);
        }
        ASSERT_EQ(visited_tiles(tiled), tiled.tiles_nonzero())
            << "spill " << spill << " trial " << trial << " step " << step;
        if (!spill || tiled.tiles_nonzero() == 0) continue;
        // Rewriting one tile in place triggers a checkpoint.
        std::size_t rb0 = 0;
        std::size_t cb0 = 0;
        TiledDepMatrix::Tile first{};
        bool have = false;
        tiled.for_each_tile([&](std::size_t rb, std::size_t cb,
                                const TiledDepMatrix::Tile& t) {
          if (have) return;
          rb0 = rb;
          cb0 = cb;
          first = t;
          have = true;
        });
        tiled.assign_tile(rb0, cb0, first);
        ASSERT_EQ(tiled.tiles_resident(),
                  std::min(kBudgetTiles, tiled.tiles_nonzero()))
            << "trial " << trial << " step " << step;
      }
      expect_same(dense, tiled);
    }
  }
}

TEST(TiledDepMatrix, MixedKernelSequenceMatchesDense) {
  // Elimination then closure — the shape the analyzer actually produces
  // (one-cycle fill, bridging, closure).
  Rng rng(47);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(220, 30, rng, &dense, &tiled);
  for (std::size_t v = 10; v < 220; v += 17) {
    dense.eliminate(v);
    tiled.eliminate(v);
  }
  std::vector<bool> active(220, true);
  for (std::size_t v = 10; v < 220; v += 17) active[v] = false;
  dense.transitive_closure(&active);
  tiled.transitive_closure(&active);
  expect_same(dense, tiled);
}

TEST(TiledDepMatrix, MarkEndpoints) {
  TiledDepMatrix m(150);
  m.upgrade(3, 130, DepKind::Path);
  m.upgrade(70, 70, DepKind::Structural);
  std::vector<bool> endpoints(150, false);
  m.mark_endpoints(endpoints);
  std::size_t marked = 0;
  for (bool b : endpoints) marked += b ? 1 : 0;
  EXPECT_EQ(marked, 3u);
  EXPECT_TRUE(endpoints[3] && endpoints[130] && endpoints[70]);
}

TEST(TiledDepMatrix, InsertTileValidation) {
  TiledDepMatrix m(100);  // nb = 2, edge block has 36 valid bits
  TiledDepMatrix::Tile t;
  std::memset(&t, 0, sizeof t);
  EXPECT_FALSE(m.insert_tile(0, 0, t));  // all-zero tile
  t.s[0] = 1;
  EXPECT_FALSE(m.insert_tile(2, 0, t));  // row block out of range
  EXPECT_FALSE(m.insert_tile(0, 2, t));  // column block out of range
  EXPECT_TRUE(m.insert_tile(0, 0, t));
  EXPECT_FALSE(m.insert_tile(0, 0, t));  // not strictly ascending
  TiledDepMatrix::Tile bad;
  std::memset(&bad, 0, sizeof bad);
  bad.p[0] = 1;  // P without S
  EXPECT_FALSE(m.insert_tile(0, 1, bad));
  bad.p[0] = 0;
  bad.s[0] = 1ULL << 40;  // beyond column 99 in the edge block
  EXPECT_FALSE(m.insert_tile(0, 1, bad));
  bad.s[0] = 0;
  bad.s[40] = 1;  // beyond row 99 in the edge row block
  EXPECT_FALSE(m.insert_tile(1, 0, bad));
  TiledDepMatrix::Tile good;
  std::memset(&good, 0, sizeof good);
  good.s[35] = 1ULL << 35;
  good.p[35] = 1ULL << 35;
  EXPECT_TRUE(m.insert_tile(1, 1, good));
  EXPECT_EQ(m.get(64 + 35, 64 + 35), DepKind::Path);
  EXPECT_EQ(m.get(0, 0), DepKind::Structural);
}

TEST(TiledDepMatrix, ForEachTileRoundTripsThroughInsert) {
  Rng rng(53);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(180, 35, rng, &dense, &tiled);
  TiledDepMatrix rebuilt(180);
  tiled.for_each_tile([&](std::size_t rb, std::size_t cb,
                          const TiledDepMatrix::Tile& t) {
    EXPECT_TRUE(rebuilt.insert_tile(rb, cb, t));
  });
  EXPECT_TRUE(rebuilt == tiled);
}

TEST(TiledDepMatrix, CopyIsDeepAndEqualityIsContentBased) {
  Rng rng(59);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(120, 30, rng, &dense, &tiled);
  TiledDepMatrix copy(tiled);
  EXPECT_TRUE(copy == tiled);
  copy.upgrade(0, 0, DepKind::Path);
  EXPECT_FALSE(copy == tiled);
  EXPECT_EQ(tiled.get(0, 0), dense.get(0, 0));
}

TEST(TiledDepMatrix, MemoryBytesTracksTileCount) {
  TiledDepMatrix m(64 * 20);
  const std::uint64_t empty = m.memory_bytes();
  m.upgrade(0, 0, DepKind::Path);
  m.upgrade(400, 900, DepKind::Structural);
  EXPECT_GE(m.memory_bytes(), empty + 2 * sizeof(TiledDepMatrix::Tile));
  // The dense footprint of a 1280-node matrix is 2 planes * 1280 rows *
  // 20 words; two tiles are far below that.
  DepMatrix d(64 * 20);
  EXPECT_LT(m.memory_bytes(), d.memory_bytes());
}

// ---------------------------------------------------------------------------
// Spill

TEST(TiledDepMatrix, SpillRoundTripBitIdentical) {
  Rng rng(61);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(260, 40, rng, &dense, &tiled);
  InMemorySpillBackend backend;
  // A budget of 4 tiles forces constant eviction through every kernel.
  tiled.set_spill(&backend, 4 * sizeof(TiledDepMatrix::Tile));
  EXPECT_GT(tiled.tiles_spilled(), 0u);
  dense.eliminate(70);
  tiled.eliminate(70);
  dense.transitive_closure();
  tiled.transitive_closure();
  expect_same(dense, tiled);
  EXPECT_LE(tiled.tiles_resident(), tiled.tiles_nonzero());
  tiled.set_spill(nullptr, 0);  // detach faults everything back in
  EXPECT_EQ(tiled.tiles_resident(), tiled.tiles_nonzero());
  expect_same(dense, tiled);
}

TEST(TiledDepMatrix, SpillBudgetKeepsResidencyBounded) {
  Rng rng(67);
  DepMatrix dense;
  TiledDepMatrix tiled;
  fill_random(320, 60, rng, &dense, &tiled);
  InMemorySpillBackend backend;
  tiled.set_spill(&backend, 8 * sizeof(TiledDepMatrix::Tile));
  // After a checkpoint-triggering mutation, residency is at the budget.
  tiled.upgrade(1, 1, DepKind::Path);
  EXPECT_LE(tiled.tiles_resident(), 8u);
  EXPECT_GT(backend.stored_objects(), 0u);
  // Contents stay correct through fault-ins.
  dense.upgrade(1, 1, DepKind::Path);
  expect_same(dense, tiled);
}

TEST(TiledDepMatrix, SpillContentAddressingDeduplicates) {
  InMemorySpillBackend backend;
  const std::string a = backend.store("same-bytes");
  const std::string b = backend.store("same-bytes");
  const std::string c = backend.store("other-bytes");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(backend.stored_objects(), 2u);
  std::string out;
  EXPECT_TRUE(backend.fetch(a, &out));
  EXPECT_EQ(out, "same-bytes");
  EXPECT_FALSE(backend.fetch("missing", &out));
}

}  // namespace
}  // namespace rsnsec
