#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

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
  EXPECT_EQ(c.resident_lines(), 2u);
  EXPECT_TRUE(c.erase(1));
  EXPECT_TRUE(c.erase(2));
  EXPECT_EQ(c.resident_lines(), 0u);
  EXPECT_FALSE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
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

using Planes = SetAssocCache::Planes;

/// Lines whose sets cover every set of `c` `ways + 1` times over, so every
/// set fills and evicts.
std::vector<Line> dense_lines(const SetAssocCache& c) {
  std::vector<Line> out;
  const Line n = static_cast<Line>(c.sets()) *
                 static_cast<Line>(c.ways() + 1);
  for (Line l = 0; l < n; ++l) out.push_back(l * 3 + 1);
  return out;
}

void fill(SetAssocCache& c, const std::vector<Line>& lines) {
  for (Line l : lines) {
    if (!c.lookup(l)) c.insert(l);
  }
}

/// A lazily valid cache built over memory a filled cache of the same
/// geometry just released must still read empty: the never-touched sets
/// hold whatever the allocator hands back (a poison pattern in debug
/// builds), and nothing may read them.
TEST(Cache, FreshCacheOverReusedMemoryIsEmpty) {
  // A KNL L1 and a KNL L2 geometry (heap- and mmap-sized planes), and an
  // odd set count (the modulo set index, a partial bitmap word).
  for (const auto& [bytes, ways] :
       std::vector<std::pair<std::uint64_t, int>>{
           {32 * 1024, 8}, {1024 * 1024, 16}, {kLineBytes * 4 * 100, 4}}) {
    for (Planes mode : {Planes::kLazy, Planes::kEager}) {
      std::vector<Line> lines;
      {
        SetAssocCache old(bytes, ways, mode);
        lines = dense_lines(old);
        fill(old, lines);
        ASSERT_EQ(old.resident_lines(),
                  static_cast<std::uint64_t>(old.sets()) *
                      static_cast<std::uint64_t>(ways));
      }
      SetAssocCache c(bytes, ways, mode);
      for (Line l : lines) {
        ASSERT_FALSE(c.contains(l)) << bytes << " line " << l;
        ASSERT_FALSE(c.lookup(l)) << bytes << " line " << l;
        ASSERT_FALSE(c.erase(l)) << bytes << " line " << l;
      }
      EXPECT_EQ(c.resident_lines(), 0u);
      EXPECT_EQ(c.clock(), 0u);
      int visited = 0;
      c.for_each_line([&](Line) { ++visited; });
      EXPECT_EQ(visited, 0);
      const state::CacheState st = c.state();
      EXPECT_EQ(st.lines, std::vector<std::uint64_t>(c.plane_words(), 0));
      EXPECT_EQ(st.stamps, std::vector<std::uint64_t>(c.plane_words(), 0));
      for (auto plane :
           {SetAssocCache::Plane::kTags, SetAssocCache::Plane::kStamps}) {
        std::size_t words = 0;
        std::size_t read = 0;  // words handed out to be read
        c.for_each_run(plane, [&](const std::uint64_t* p, std::size_t n) {
          words += n;
          if (p != nullptr) read += n;
        });
        EXPECT_EQ(words, c.plane_words());
        EXPECT_EQ(read, 0u);
      }
    }
  }
}

/// The reference: an eagerly zero-filled tag array with the same
/// replacement rule (first empty way, else the least recent stamp).
class ReferenceCache {
 public:
  ReferenceCache(std::uint64_t sets, int ways)
      : sets_(sets),
        ways_(static_cast<std::size_t>(ways)),
        lines_(sets * ways_, 0),
        stamps_(sets * ways_, 0) {}

  std::optional<std::size_t> find(Line line) const {
    const std::size_t base = (line % sets_) * ways_;
    for (std::size_t w = base; w < base + ways_; ++w) {
      if (stamps_[w] != 0 && lines_[w] == line) return w;
    }
    return std::nullopt;
  }
  bool lookup(Line line) {
    const auto w = find(line);
    if (w) stamps_[*w] = ++clock_;
    return w.has_value();
  }
  std::optional<Line> insert(Line line) {
    const std::size_t base = (line % sets_) * ways_;
    std::size_t way = base;
    for (std::size_t w = base; w < base + ways_; ++w) {
      if (stamps_[w] == 0) {
        ++resident_;
        lines_[w] = line;
        stamps_[w] = ++clock_;
        return std::nullopt;
      }
      if (stamps_[w] < stamps_[way]) way = w;
    }
    const Line victim = lines_[way];
    lines_[way] = line;
    stamps_[way] = ++clock_;
    return victim;
  }
  bool erase(Line line) {
    const auto w = find(line);
    if (!w) return false;
    lines_[*w] = 0;
    stamps_[*w] = 0;
    --resident_;
    return true;
  }

  std::uint64_t sets_;
  std::size_t ways_;
  std::vector<std::uint64_t> lines_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
  std::uint64_t resident_ = 0;
};

/// 100k seeded random operations on both plane modes against the eagerly
/// zeroed reference: equal answers and evictions throughout, equal state()
/// planes and resident sets at checkpoints. The line draw widens over the
/// run, so sets are first touched all through it, and the caches are built
/// over the memory of a dense cache of the same geometry.
TEST(Cache, LazyPlanesMatchAnEagerReference) {
  for (const auto& [sets, ways] :
       std::vector<std::pair<std::uint64_t, int>>{{64, 4}, {48, 2}, {256, 16}}) {
    for (Planes mode : {Planes::kLazy, Planes::kEager}) {
      const std::uint64_t bytes =
          sets * static_cast<std::uint64_t>(ways) * kLineBytes;
      {
        SetAssocCache old(bytes, ways, mode);
        fill(old, dense_lines(old));
      }
      SetAssocCache c(bytes, ways, mode);
      ReferenceCache ref(sets, ways);
      std::uint64_t state = 0x9e3779b97f4a7c15ull + sets;
      const auto next = [&state](std::uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
      };
      constexpr int kOps = 100000;
      for (int i = 0; i < kOps; ++i) {
        // Up to ~3 lines per way, over a window of sets that grows to all.
        const std::uint64_t window =
            1 + sets * static_cast<std::uint64_t>(i + 1) / kOps;
        const Line line =
            next(window) + sets * next(3 * static_cast<std::uint64_t>(ways));
        const char* what = "";
        switch (next(4)) {
          case 0:
            what = "lookup";
            ASSERT_EQ(c.lookup(line), ref.lookup(line)) << i;
            break;
          case 1:
            what = "contains";
            ASSERT_EQ(c.contains(line), ref.find(line).has_value()) << i;
            break;
          case 2:
            what = "erase";
            ASSERT_EQ(c.erase(line), ref.erase(line)) << i;
            break;
          default:
            what = "insert";
            if (!ref.find(line)) {
              ASSERT_EQ(c.insert(line), ref.insert(line)) << i;
            }
            break;
        }
        ASSERT_EQ(c.resident_lines(), ref.resident_) << what << " " << i;
        if (i % 10000 == 0 || i == kOps - 1) {
          const state::CacheState st = c.state();
          ASSERT_EQ(st.clock, ref.clock_) << i;
          ASSERT_EQ(st.resident, ref.resident_) << i;
          ASSERT_EQ(st.lines, ref.lines_) << i;
          ASSERT_EQ(st.stamps, ref.stamps_) << i;
          std::multiset<Line> live;
          c.for_each_line([&](Line l) { live.insert(l); });
          std::multiset<Line> want;
          for (std::size_t w = 0; w < ref.stamps_.size(); ++w) {
            if (ref.stamps_[w] != 0) want.insert(ref.lines_[w]);
          }
          ASSERT_EQ(live, want) << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace capmem::sim
