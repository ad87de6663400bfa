#include <gtest/gtest.h>

#include "sim/mcdram_cache.hpp"

namespace capmem::sim {
namespace {

TEST(McdramCache, DisabledWhenZeroCapacity) {
  McdramCache c(0);
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(c.probe(1));
}

TEST(McdramCache, MissThenHit) {
  McdramCache c(kLineBytes * 16);
  EXPECT_FALSE(c.probe(3));
  const auto a = c.access(3);
  EXPECT_FALSE(a.hit);
  EXPECT_FALSE(a.evicted.has_value());
  EXPECT_TRUE(c.probe(3));
  EXPECT_TRUE(c.access(3).hit);
}

TEST(McdramCache, DirectMappedConflict) {
  McdramCache c(kLineBytes * 16);  // 16 sets
  c.access(5);
  const auto a = c.access(5 + 16);  // same set
  EXPECT_FALSE(a.hit);
  ASSERT_TRUE(a.evicted.has_value());
  EXPECT_EQ(*a.evicted, 5u);
  EXPECT_FALSE(c.probe(5));
  EXPECT_TRUE(c.probe(21));
}

TEST(McdramCache, DistinctSetsCoexist) {
  McdramCache c(kLineBytes * 16);
  for (Line l = 0; l < 16; ++l) c.access(l);
  for (Line l = 0; l < 16; ++l) EXPECT_TRUE(c.probe(l));
  EXPECT_EQ(c.resident_lines(), 16u);
}

TEST(McdramCache, EraseOnlyMatchingTag) {
  McdramCache c(kLineBytes * 16);
  c.access(2);
  c.erase(2 + 16);  // same set, different tag: no-op
  EXPECT_TRUE(c.probe(2));
  c.erase(2);
  EXPECT_FALSE(c.probe(2));
}

TEST(McdramCache, WriteBackFills) {
  McdramCache c(kLineBytes * 16);
  c.write_back(9);
  EXPECT_TRUE(c.probe(9));
}

TEST(McdramCache, ClearEmpties) {
  McdramCache c(kLineBytes * 16);
  c.access(1);
  c.access(2);
  c.erase(1);
  c.erase(2);
  EXPECT_EQ(c.resident_lines(), 0u);
  EXPECT_FALSE(c.probe(1));
  EXPECT_FALSE(c.probe(2));
}

TEST(McdramCache, AccessWhenDisabledThrows) {
  McdramCache c(0);
  EXPECT_THROW(c.access(1), CheckError);
}

}  // namespace
}  // namespace capmem::sim
