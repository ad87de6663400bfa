#include <gtest/gtest.h>

#include "sim/cache.hpp"

namespace capmem::sim {
namespace {

TEST(Cache, GeometryFromCapacity) {
  SetAssocCache c(32 * 1024, 8);  // KNL L1: 64 sets x 8 ways
  EXPECT_EQ(c.sets(), 64);
  EXPECT_EQ(c.ways(), 8);
}

TEST(Cache, InvalidGeometryThrows) {
  EXPECT_THROW(SetAssocCache(100, 8), CheckError);
  EXPECT_THROW(SetAssocCache(0, 8), CheckError);
}

TEST(Cache, InsertThenLookup) {
  SetAssocCache c(kLineBytes * 8, 2);  // 4 sets x 2 ways
  EXPECT_FALSE(c.lookup(5));
  EXPECT_EQ(c.insert(5), std::nullopt);
  EXPECT_TRUE(c.lookup(5));
  EXPECT_TRUE(c.contains(5));
}

TEST(Cache, LruEvictionWithinSet) {
  SetAssocCache c(kLineBytes * 8, 2);  // 4 sets
  // Lines 0, 4, 8 all map to set 0.
  c.insert(0);
  c.insert(4);
  c.lookup(0);  // make 4 the LRU
  const auto evicted = c.insert(8);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 4u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(8));
}

TEST(Cache, EraseAndClear) {
  SetAssocCache c(kLineBytes * 8, 2);
  c.insert(3);
  EXPECT_TRUE(c.erase(3));
  EXPECT_FALSE(c.erase(3));
  c.insert(1);
  c.insert(2);
  c.clear();
  EXPECT_EQ(c.resident_lines(), 0u);
}

TEST(Cache, DistinctSetsDoNotConflict) {
  SetAssocCache c(kLineBytes * 8, 2);  // 4 sets
  for (Line l = 0; l < 4; ++l) EXPECT_EQ(c.insert(l), std::nullopt);
  EXPECT_EQ(c.resident_lines(), 4u);
}

TEST(Cache, CapacityProperty) {
  // Inserting any sequence never exceeds sets*ways resident lines.
  SetAssocCache c(kLineBytes * 32, 4);  // 8 sets x 4 ways
  for (Line l = 0; l < 1000; ++l) {
    if (!c.lookup(l * 7)) c.insert(l * 7);
    EXPECT_LE(c.resident_lines(), 32u);
  }
}

class CacheSweep : public ::testing::TestWithParam<int> {};

TEST_P(CacheSweep, FullSetAlwaysEvictsExactlyOne) {
  const int ways = GetParam();
  SetAssocCache c(kLineBytes * static_cast<std::uint64_t>(ways) * 2, ways);
  // Fill set 0 (stride = number of sets = 2).
  for (int i = 0; i < ways; ++i)
    EXPECT_EQ(c.insert(static_cast<Line>(i) * 2), std::nullopt);
  for (int i = ways; i < ways + 5; ++i) {
    EXPECT_TRUE(c.insert(static_cast<Line>(i) * 2).has_value());
    EXPECT_EQ(c.resident_lines(), static_cast<std::uint64_t>(ways));
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheSweep, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace capmem::sim
