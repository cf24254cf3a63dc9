#include "security/spec.hpp"

#include <gtest/gtest.h>

namespace rsnsec::security {
namespace {

TEST(SecuritySpec, DefaultsArePermissive) {
  SecuritySpec spec(3, 4);
  EXPECT_EQ(spec.num_modules(), 3u);
  EXPECT_EQ(spec.num_categories(), 4u);
  EXPECT_EQ(spec.policy(0).accepted, 0xffffffffu);
  // Out-of-range / unannotated modules fall back to permissive.
  EXPECT_EQ(spec.policy(-1).accepted, 0xffffffffu);
  EXPECT_EQ(spec.policy(99).accepted, 0xffffffffu);
}

TEST(SecuritySpec, ValidateChecksRanges) {
  SecuritySpec spec(2, 2);
  spec.set_policy(0, 3, 0b1000);  // trust out of range
  std::string err;
  EXPECT_FALSE(spec.validate(&err));
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

TEST(SecuritySpec, ValidateRequiresSelfAcceptance) {
  SecuritySpec spec(1, 2);
  spec.set_policy(0, 1, 0b01);  // trusts 1 but only accepts category 0
  std::string err;
  EXPECT_FALSE(spec.validate(&err));
  EXPECT_NE(err.find("own trust"), std::string::npos);
}

TEST(SecuritySpec, RejectsBadConstruction) {
  EXPECT_THROW(SecuritySpec(1, 0), std::invalid_argument);
  EXPECT_THROW(SecuritySpec(1, 17), std::invalid_argument);
  SecuritySpec spec(1, 2);
  EXPECT_THROW(spec.set_policy(5, 0, 1), std::out_of_range);
}

TEST(TokenSet, BasicOperations) {
  TokenSet a, b;
  EXPECT_FALSE(a.any());
  a.set(3);
  a.set(200);
  EXPECT_TRUE(a.test(3));
  EXPECT_TRUE(a.test(200));
  EXPECT_FALSE(a.test(4));
  b.set(200);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.first_common(b), 200);
  TokenSet c;
  c.set(5);
  EXPECT_FALSE(a.intersects(c));
  EXPECT_EQ(a.first_common(c), -1);
}

TEST(TokenSet, FirstCommonFindsEveryWordEdge) {
  for (std::size_t i : {0, 1, 63, 64, 127, 128, 191, 192, 255}) {
    TokenSet a, b;
    a.set(i);
    b.set(i);
    // Bits the other set lacks, around and below i, must not count.
    if (i > 0) a.set(i - 1);
    if (i + 1 < TokenSet::capacity) b.set(i + 1);
    EXPECT_EQ(a.first_common(b), static_cast<int>(i)) << "bit " << i;
    EXPECT_EQ(b.first_common(a), static_cast<int>(i)) << "bit " << i;
    EXPECT_EQ(a.count_common(b), 1u) << "bit " << i;
  }
}

TEST(TokenSet, FirstCommonIsTheLowestAcrossWords) {
  TokenSet a, b;
  for (std::size_t i : {70, 130, 200, 255}) {
    a.set(i);
    b.set(i);
  }
  a.set(5);    // only in a
  b.set(10);   // only in b
  a.set(100);  // only in a
  EXPECT_EQ(a.first_common(b), 70);
  EXPECT_EQ(a.count_common(b), 4u);
  a.set(66);
  b.set(66);
  EXPECT_EQ(a.first_common(b), 66);
  EXPECT_EQ(a.count_common(b), 5u);
  a.set(0);
  b.set(0);
  EXPECT_EQ(b.first_common(a), 0);
  EXPECT_EQ(b.count_common(a), 6u);
}

TEST(TokenSet, DisjointSetsWithBitsInEveryWordShareNothing) {
  TokenSet even, odd;
  for (std::size_t i = 0; i < TokenSet::capacity; ++i)
    (i % 2 == 0 ? even : odd).set(i);
  EXPECT_EQ(even.first_common(odd), -1);
  EXPECT_EQ(odd.first_common(even), -1);
  EXPECT_EQ(even.count_common(odd), 0u);
  EXPECT_EQ(even.count_common(even), TokenSet::capacity / 2);
  EXPECT_EQ(TokenSet{}.first_common(even), -1);
  EXPECT_EQ(TokenSet{}.count_common(even), 0u);
}

TEST(TokenSet, MergeReportsChange) {
  TokenSet a, b;
  b.set(7);
  EXPECT_TRUE(a.merge(b));
  EXPECT_FALSE(a.merge(b));  // already contained
  EXPECT_TRUE(a.test(7));
}

TEST(TokenTable, InternsByAcceptedMask) {
  SecuritySpec spec(4, 3);
  spec.set_policy(0, 0, 0b001);  // restrictive mask A
  spec.set_policy(1, 0, 0b001);  // same mask A: shares the token
  spec.set_policy(2, 1, 0b011);  // mask B
  spec.set_policy(3, 2, 0b111);  // fully permissive: no token
  TokenTable t(spec, 4);
  EXPECT_EQ(t.num_tokens(), 2u);
  EXPECT_EQ(t.token_of(0), t.token_of(1));
  EXPECT_NE(t.token_of(0), t.token_of(2));
  EXPECT_EQ(t.token_of(3), -1);
  EXPECT_EQ(t.token_of(-1), -1);
}

TEST(TokenTable, BadSetsMatchMasks) {
  SecuritySpec spec(2, 3);
  spec.set_policy(0, 0, 0b011);  // data accepted by categories 0 and 1
  spec.set_policy(1, 2, 0b111);
  TokenTable t(spec, 2);
  int tok = t.token_of(0);
  ASSERT_GE(tok, 0);
  // A category-2 observer violates module 0's data; 0 and 1 do not.
  EXPECT_TRUE(t.bad(2).test(static_cast<std::size_t>(tok)));
  EXPECT_FALSE(t.bad(0).test(static_cast<std::size_t>(tok)));
  EXPECT_FALSE(t.bad(1).test(static_cast<std::size_t>(tok)));
}

TEST(TokenTable, SelfTokenNeverBadAfterValidation) {
  SecuritySpec spec(3, 4);
  spec.set_policy(0, 2, 0b0100);
  spec.set_policy(1, 1, 0b0011);
  spec.set_policy(2, 3, 0b1111);
  ASSERT_TRUE(spec.validate());
  TokenTable t(spec, 3);
  for (netlist::ModuleId m = 0; m < 3; ++m) {
    int tok = t.token_of(m);
    if (tok < 0) continue;
    EXPECT_FALSE(t.bad(spec.policy(m).trust).test(
        static_cast<std::size_t>(tok)))
        << "module " << m;
  }
}

}  // namespace
}  // namespace rsnsec::security
