// EpochSet / EpochMap: a pass sees only what it set itself, across epoch
// wraparound (8-bit stamps wrap every 255 passes), and growth of the
// index space between passes.

#include "util/epoch_map.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace rsnsec {
namespace {

TEST(EpochSet, PassesSeeOnlyTheirOwnInsertsAcrossWraparound) {
  Rng rng(3);
  EpochSet<std::uint8_t> set;
  std::size_t n = 40;
  for (int pass = 0; pass < 1000; ++pass) {
    if (pass % 100 == 99) n += 7;  // grown indices start absent
    set.reset(n);
    std::vector<bool> want(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FALSE(set.contains(i)) << "pass " << pass << " index " << i;
      if (rng.chance(0.3)) {
        set.insert(i);
        want[i] = true;
      }
    }
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(set.contains(i), want[i]) << "pass " << pass << " index " << i;
  }
}

TEST(EpochSet, AStampFromOneFullCycleAgoReadsAbsent) {
  // Index 0 is stamped once, in the first pass; without the zeroing at
  // wraparound, the epoch counter would come back to that stamp.
  EpochSet<std::uint8_t> set;
  set.reset(1);
  set.insert(0);
  for (int pass = 0; pass < 600; ++pass) {
    set.reset(1);
    ASSERT_FALSE(set.contains(0)) << "pass " << pass;
  }
}

TEST(EpochMap, GetReturnsAbsentForEntriesOfEarlierPasses) {
  EpochMap<int, std::uint8_t> map;
  for (int pass = 0; pass < 700; ++pass) {
    map.reset(8);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(map.get(i, -1), -1);
    map.set(static_cast<std::size_t>(pass) % 8, pass);
    EXPECT_EQ(map.get(static_cast<std::size_t>(pass) % 8, -1), pass);
    EXPECT_TRUE(map.contains(static_cast<std::size_t>(pass) % 8));
  }
}

}  // namespace
}  // namespace rsnsec
