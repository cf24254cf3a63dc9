// Multi-cycle closure against the cycle-by-cycle definition of [18]: the
// dependencies within k cycles are the chain compositions of length 1..k
// of the 1-cycle relation, and the closure is what they saturate to. The
// reference below computes them round by round; DepMatrix::transitive_
// closure must equal its saturation on random relations with self-loops
// and cycles (which ClosureFuzz in dep_matrix_test.cpp does not draw).

#include <gtest/gtest.h>

#include <vector>

#include "util/dep_matrix.hpp"
#include "util/rng.hpp"

namespace rsnsec {
namespace {

/// Dependencies over at most `cycles` cycles: round r extends every chain
/// by one hop of the fixed 1-cycle relation `one`, reading only the
/// previous round's result.
DepMatrix within_cycles(const DepMatrix& one, std::size_t cycles) {
  const std::size_t n = one.size();
  DepMatrix cur = one;
  for (std::size_t round = 1; round < cycles; ++round) {
    DepMatrix next = cur;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t v = 0; v < n; ++v)
        for (std::size_t j = 0; j < n; ++j)
          next.upgrade(i, j, compose_dep(cur.get(i, v), one.get(v, j)));
    cur = next;
  }
  return cur;
}

DepMatrix random_relation(Rng& rng, std::size_t n) {
  DepMatrix m(n);
  for (std::size_t e = 0; e < 2 * n; ++e) {
    const std::size_t a = rng.below(static_cast<std::uint32_t>(n));
    const std::size_t b = rng.below(static_cast<std::uint32_t>(n));
    m.upgrade(a, b, rng.chance(0.6) ? DepKind::Path : DepKind::Structural);
  }
  return m;
}

class BoundedFuzz : public ::testing::TestWithParam<int> {};

// n nodes means no simple chain is longer than n hops; cycles saturate
// too, so n + 1 rounds reach the closure.
TEST_P(BoundedFuzz, SaturatesToFullClosure) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7727 + 5);
  const std::size_t n = 3 + rng.below(10);
  const DepMatrix m = random_relation(rng, n);
  DepMatrix full = m;
  full.transitive_closure();
  EXPECT_EQ(within_cycles(m, n + 1), full);
}

// Every bounded relation lies between the previous bound and the closure.
TEST_P(BoundedFuzz, MonotoneInCycleCount) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104717 + 11);
  const std::size_t n = 3 + rng.below(8);
  const DepMatrix m = random_relation(rng, n);
  DepMatrix full = m;
  full.transitive_closure();
  DepMatrix prev = m;
  for (std::size_t k = 1; k <= n; ++k) {
    const DepMatrix cur = within_cycles(m, k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(max_dep(cur.get(i, j), prev.get(i, j)), cur.get(i, j))
            << "k=" << k;
        EXPECT_EQ(max_dep(cur.get(i, j), full.get(i, j)), full.get(i, j))
            << "k=" << k;
      }
    }
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, BoundedFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace rsnsec
