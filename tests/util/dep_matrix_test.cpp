#include "util/dep_matrix.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace rsnsec {
namespace {

TEST(DepKind, ComposeSemantics) {
  using K = DepKind;
  // A chain is path-dependent only if every hop is (Sec. III-A.2).
  EXPECT_EQ(compose_dep(K::Path, K::Path), K::Path);
  EXPECT_EQ(compose_dep(K::Path, K::Structural), K::Structural);
  EXPECT_EQ(compose_dep(K::Structural, K::Path), K::Structural);
  EXPECT_EQ(compose_dep(K::Structural, K::Structural), K::Structural);
  EXPECT_EQ(compose_dep(K::None, K::Path), K::None);
  EXPECT_EQ(compose_dep(K::Path, K::None), K::None);
  EXPECT_EQ(max_dep(K::Structural, K::Path), K::Path);
  EXPECT_EQ(max_dep(K::None, K::Structural), K::Structural);
}

TEST(DepMatrix, SetGetUpgrade) {
  DepMatrix m(5);
  EXPECT_EQ(m.get(0, 1), DepKind::None);
  m.upgrade(0, 1, DepKind::Structural);
  EXPECT_EQ(m.get(0, 1), DepKind::Structural);
  m.upgrade(0, 1, DepKind::Path);
  EXPECT_EQ(m.get(0, 1), DepKind::Path);
  // Upgrade never downgrades.
  m.upgrade(0, 1, DepKind::Structural);
  EXPECT_EQ(m.get(0, 1), DepKind::Path);
  m.upgrade(0, 1, DepKind::None);
  EXPECT_EQ(m.get(0, 1), DepKind::Path);
  // set() can downgrade.
  m.set(0, 1, DepKind::Structural);
  EXPECT_EQ(m.get(0, 1), DepKind::Structural);
  m.set(0, 1, DepKind::None);
  EXPECT_EQ(m.get(0, 1), DepKind::None);
}

TEST(DepMatrix, CountersAndClearNode) {
  DepMatrix m(4);
  m.upgrade(0, 1, DepKind::Path);
  m.upgrade(1, 2, DepKind::Structural);
  m.upgrade(2, 3, DepKind::Path);
  EXPECT_EQ(m.count_nonzero(), 3u);
  EXPECT_EQ(m.count_path(), 2u);
  m.clear_node(1);
  EXPECT_EQ(m.get(0, 1), DepKind::None);
  EXPECT_EQ(m.get(1, 2), DepKind::None);
  EXPECT_EQ(m.get(2, 3), DepKind::Path);
  EXPECT_EQ(m.count_nonzero(), 1u);
}

TEST(DepMatrix, SuccessorsPredecessors) {
  DepMatrix m(70);  // spans more than one 64-bit word
  m.upgrade(3, 65, DepKind::Path);
  m.upgrade(3, 10, DepKind::Structural);
  m.upgrade(7, 65, DepKind::Path);
  EXPECT_EQ(m.successors(3), (std::vector<std::size_t>{10, 65}));
  EXPECT_EQ(m.predecessors(65), (std::vector<std::size_t>{3, 7}));
  EXPECT_TRUE(m.successors(0).empty());
}

TEST(DepMatrix, ClosureChainOfPaths) {
  DepMatrix m(4);
  m.upgrade(0, 1, DepKind::Path);
  m.upgrade(1, 2, DepKind::Path);
  m.upgrade(2, 3, DepKind::Path);
  m.transitive_closure();
  EXPECT_EQ(m.get(0, 3), DepKind::Path);
  EXPECT_EQ(m.get(0, 2), DepKind::Path);
  EXPECT_EQ(m.get(3, 0), DepKind::None);
}

TEST(DepMatrix, ClosureStructuralHopDowngradesChain) {
  // 0 -path-> 1 -struct-> 2 -path-> 3: 0..3 is only structural, exactly
  // the IF2-on-F6 situation of the paper's running example.
  DepMatrix m(4);
  m.upgrade(0, 1, DepKind::Path);
  m.upgrade(1, 2, DepKind::Structural);
  m.upgrade(2, 3, DepKind::Path);
  m.transitive_closure();
  EXPECT_EQ(m.get(0, 3), DepKind::Structural);
  EXPECT_EQ(m.get(0, 2), DepKind::Structural);
  EXPECT_EQ(m.get(1, 3), DepKind::Structural);
}

TEST(DepMatrix, ClosureParallelPathsKeepStrongest) {
  // Two routes 0->3: one all-path, one through a structural hop; the
  // path-dependent route wins.
  DepMatrix m(4);
  m.upgrade(0, 1, DepKind::Path);
  m.upgrade(1, 3, DepKind::Path);
  m.upgrade(0, 2, DepKind::Structural);
  m.upgrade(2, 3, DepKind::Path);
  m.transitive_closure();
  EXPECT_EQ(m.get(0, 3), DepKind::Path);
}

TEST(DepMatrix, ClosureRespectsActiveMask) {
  DepMatrix m(3);
  m.upgrade(0, 1, DepKind::Path);
  m.upgrade(1, 2, DepKind::Path);
  std::vector<bool> active{true, false, true};  // 1 may not be a via node
  m.transitive_closure(&active);
  EXPECT_EQ(m.get(0, 2), DepKind::None);
}

TEST(DepMatrix, ClosureHandlesCycles) {
  DepMatrix m(3);
  m.upgrade(0, 1, DepKind::Path);
  m.upgrade(1, 0, DepKind::Path);
  m.upgrade(1, 2, DepKind::Structural);
  m.transitive_closure();
  EXPECT_EQ(m.get(0, 0), DepKind::Path);
  EXPECT_EQ(m.get(1, 1), DepKind::Path);
  EXPECT_EQ(m.get(0, 2), DepKind::Structural);
}

// Property: closure computed by the bit-parallel Warshall equals a naive
// fixed-point computation on random matrices.
class ClosureFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ClosureFuzz, MatchesNaiveFixpoint) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 7);
  std::size_t n = 2 + rng.below(14);
  DepMatrix m(n);
  std::vector<std::vector<DepKind>> naive(n,
                                          std::vector<DepKind>(n,
                                                               DepKind::None));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (rng.chance(0.15)) {
        DepKind k = rng.chance(0.5) ? DepKind::Path : DepKind::Structural;
        m.upgrade(i, j, k);
        naive[i][j] = k;
      }
    }
  }
  // Naive: repeat relaxation until no change.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t j = 0; j < n; ++j) {
          DepKind via = compose_dep(naive[i][k], naive[k][j]);
          if (max_dep(naive[i][j], via) != naive[i][j]) {
            naive[i][j] = max_dep(naive[i][j], via);
            changed = true;
          }
        }
  }
  m.transitive_closure();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(m.get(i, j), naive[i][j]) << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ClosureFuzz, ::testing::Range(0, 40));

TEST(DepMatrix, EliminateBridgesThroughNode) {
  DepMatrix m(5);
  m.upgrade(0, 2, DepKind::Path);        // pred of the bridged node
  m.upgrade(1, 2, DepKind::Structural);  // structural pred
  m.upgrade(2, 3, DepKind::Path);
  m.upgrade(2, 4, DepKind::Structural);
  m.upgrade(1, 1, DepKind::Path);  // diagonal entry must survive untouched
  m.eliminate(2);
  // Composition semantics: a bridged chain is Path only if both hops are.
  EXPECT_EQ(m.get(0, 3), DepKind::Path);
  EXPECT_EQ(m.get(0, 4), DepKind::Structural);
  EXPECT_EQ(m.get(1, 3), DepKind::Structural);
  EXPECT_EQ(m.get(1, 4), DepKind::Structural);
  EXPECT_EQ(m.get(1, 1), DepKind::Path);
  // No self-dependencies created, and the node is fully cleared.
  EXPECT_EQ(m.get(0, 0), DepKind::None);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(m.get(2, i), DepKind::None) << i;
    EXPECT_EQ(m.get(i, 2), DepKind::None) << i;
  }
}

class EliminateFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EliminateFuzz, MatchesNaiveBridging) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const std::size_t n = 2 + rng.below(70);  // crosses the 64-bit word edge
  DepMatrix m(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.12)) m.upgrade(i, j, DepKind::Structural);
      if (rng.chance(0.08)) m.upgrade(i, j, DepKind::Path);
    }
  const std::size_t v = rng.below(static_cast<std::uint32_t>(n));

  // Reference: the allocation-heavy per-pair loop eliminate() replaces
  // (including the v-self-loop and (p,p)-diagonal exclusions).
  DepMatrix ref = m;
  for (std::size_t p = 0; p < n; ++p) {
    if (p == v || m.get(p, v) == DepKind::None) continue;
    for (std::size_t s = 0; s < n; ++s) {
      if (s == v || s == p || m.get(v, s) == DepKind::None) continue;
      ref.upgrade(p, s, compose_dep(m.get(p, v), m.get(v, s)));
    }
  }
  ref.clear_node(v);

  m.eliminate(v);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(m.get(i, j), ref.get(i, j)) << i << "," << j << " v=" << v;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, EliminateFuzz, ::testing::Range(0, 30));

/// Random relation with self-loops (the diagonal rule) and back edges
/// (cycles through eliminated nodes) at the given density.
DepMatrix random_relation(Rng& rng, std::size_t n, double density) {
  DepMatrix m(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(density)) m.upgrade(i, j, DepKind::Structural);
      if (rng.chance(density / 2)) m.upgrade(i, j, DepKind::Path);
    }
  for (std::size_t i = 0; i < n; ++i)
    if (rng.chance(0.3)) m.upgrade(i, i, DepKind::Path);
  return m;
}

TEST(DepMatrix, EliminateAllEqualsAscendingEliminate) {
  // Sizes on and off the 64-bit word edge; empty, full and random masks
  // of several densities.
  Rng rng(77);
  for (std::size_t n : {1u, 2u, 5u, 63u, 64u, 65u, 127u, 128u, 130u, 200u}) {
    for (int variant = 0; variant < 6; ++variant) {
      const double density = variant % 2 == 0 ? 0.05 : 0.2;
      DepMatrix m = random_relation(rng, n, density);
      std::vector<bool> mask(n, false);
      for (std::size_t v = 0; v < n; ++v) {
        if (variant == 0) mask[v] = false;
        else if (variant == 1) mask[v] = true;
        else mask[v] = rng.chance(variant < 4 ? 0.3 : 0.8);
      }
      DepMatrix ref = m;
      for (std::size_t v = 0; v < n; ++v)
        if (mask[v]) ref.eliminate(v);
      m.eliminate_all(mask);
      ASSERT_TRUE(m == ref) << "n=" << n << " variant=" << variant;
      EXPECT_EQ(m.count_nonzero(), ref.count_nonzero());
    }
  }
}

TEST(DepMatrix, MarkEndpointsEqualsSuccessorLoop) {
  Rng rng(78);
  for (std::size_t n : {1u, 3u, 63u, 64u, 65u, 129u}) {
    for (double density : {0.0, 0.002, 0.02, 0.3}) {
      DepMatrix m = random_relation(rng, n, density);
      std::vector<bool> want(n, false);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j : m.successors(i)) {
          want[i] = true;
          want[j] = true;
        }
      std::vector<bool> got(n, false);
      m.mark_endpoints(got);
      EXPECT_EQ(got, want) << "n=" << n << " density=" << density;
    }
  }
}

}  // namespace
}  // namespace rsnsec
