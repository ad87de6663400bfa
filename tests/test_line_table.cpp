#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "sim/coherence.hpp"
#include "sim/line_table.hpp"

namespace capmem::sim {
namespace {

TEST(LineTable, InsertFindErase) {
  LineTable<int> t;
  EXPECT_EQ(t.find(5), nullptr);
  t.get_or_create(5) = 42;
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(*t.find(5), 42);
  EXPECT_TRUE(t.erase(5));
  EXPECT_EQ(t.find(5), nullptr);
  EXPECT_FALSE(t.erase(5));
}

TEST(LineTable, GetOrCreateIsIdempotent) {
  LineTable<int> t;
  t.get_or_create(9) = 1;
  EXPECT_EQ(t.get_or_create(9), 1);
  EXPECT_EQ(t.size(), 1u);
}

TEST(LineTable, ReferencesStableAcrossInsertsAndErases) {
  LineTable<int> t;
  int& ref = t.get_or_create(1000000);  // outside the churn key range
  ref = 7;
  for (std::uint64_t k = 0; k < 50000; ++k) t.get_or_create(k) = 1;
  for (std::uint64_t k = 0; k < 25000; ++k) t.erase(k);
  ASSERT_NE(t.find(1000000), nullptr);
  EXPECT_EQ(*t.find(1000000), 7);
  EXPECT_EQ(ref, 7);  // the chunked pool never relocates live entries
}

TEST(LineTable, MatchesStdMapUnderRandomOps) {
  LineTable<int> t;
  std::map<std::uint64_t, int> ref;
  Rng rng(77);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t key = rng.next_below(500);
    switch (rng.next_below(3)) {
      case 0: {
        const int v = static_cast<int>(rng.next_below(1000));
        t.get_or_create(key) = v;
        ref[key] = v;
        break;
      }
      case 1: {
        EXPECT_EQ(t.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {
        const int* found = t.find(key);
        const auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
}

TEST(LineTable, BackwardShiftKeepsCollidingKeysFindable) {
  // Force collisions by inserting many keys, then erase interleaved and
  // verify all survivors remain findable (tombstone-free deletion).
  LineTable<int> t;
  for (std::uint64_t k = 0; k < 10000; ++k) t.get_or_create(k) = static_cast<int>(k);
  for (std::uint64_t k = 0; k < 10000; k += 2) t.erase(k);
  for (std::uint64_t k = 1; k < 10000; k += 2) {
    ASSERT_NE(t.find(k), nullptr) << k;
    EXPECT_EQ(*t.find(k), static_cast<int>(k));
  }
}

TEST(LineTable, ForEachVisitsAll) {
  LineTable<int> t;
  for (std::uint64_t k = 10; k < 20; ++k) t.get_or_create(k) = 1;
  std::size_t count = 0;
  std::uint64_t key_sum = 0;
  t.for_each([&](std::uint64_t k, const int&) {
    ++count;
    key_sum += k;
  });
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(key_sum, 145u);
}

TEST(LineTable, ClearEmpties) {
  LineTable<int> t;
  for (std::uint64_t k = 0; k < 100; ++k) t.get_or_create(k);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(5), nullptr);
  t.get_or_create(5) = 3;  // usable after clear
  EXPECT_EQ(*t.find(5), 3);
}

TEST(LineTable, GrowsPastInitialCapacity) {
  LineTable<LineEntry> t;
  for (std::uint64_t k = 0; k < 100000; ++k) t.get_or_create(k);
  EXPECT_EQ(t.size(), 100000u);
  EXPECT_NE(t.find(99999), nullptr);
}

TEST(LineTable, EmptyTableAnswersWithoutStorage) {
  LineTable<LineEntry> t;
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_EQ(t.find_handle(3), LineTable<LineEntry>::kNoHandle);
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.pool_slots(), 0u);
  std::size_t visited = 0;
  t.for_each([&](std::uint64_t, const LineEntry&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  t.clear();
  t.get_or_create(3).version = 9;
  EXPECT_EQ(t.find(3)->version, 9u);
}

// LineEntry pools hold 256 entries per 16 KiB chunk, so a few thousand keys
// span many chunks and several slot-array rehashes.
TEST(LineTable, ReferencesStableAcrossChunkBoundariesAndRehash) {
  LineTable<LineEntry> t;
  constexpr std::uint64_t kKeys = 5000;
  std::vector<LineEntry*> refs;
  std::vector<LineTable<LineEntry>::Handle> handles;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const auto [h, inserted] = t.try_emplace(k);
    ASSERT_TRUE(inserted);
    LineEntry& e = t.at(h);
    e.version = k;
    refs.push_back(&e);
    handles.push_back(h);
  }
  for (std::uint64_t k = 0; k < kKeys; k += 3) t.erase(k);
  for (std::uint64_t k = kKeys; k < 3 * kKeys; ++k) t.get_or_create(k);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k % 3 == 0) {
      EXPECT_EQ(t.find(k), nullptr);
      continue;
    }
    ASSERT_EQ(t.find(k), refs[k]) << k;
    EXPECT_EQ(t.find_handle(k), handles[k]);
    EXPECT_EQ(&t.at(handles[k]), refs[k]);
    EXPECT_EQ(refs[k]->version, k);
  }
}

TEST(LineTable, PoolEntriesAreCacheLineAligned) {
  LineTable<LineEntry> t;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const auto addr = reinterpret_cast<std::uintptr_t>(&t.get_or_create(k));
    ASSERT_EQ(addr % 64, 0u) << k;
  }
}

TEST(LineTable, ForEachVisitsEntriesInEveryChunk) {
  LineTable<LineEntry> t;
  constexpr std::uint64_t kKeys = 256 * 5 + 17;  // six chunks, last partial
  for (std::uint64_t k = 0; k < kKeys; ++k) t.get_or_create(k).version = k;
  // Hollow out the middle chunks; the survivors must all be visited.
  for (std::uint64_t k = 300; k < 900; ++k) t.erase(k);
  std::size_t count = 0;
  std::uint64_t key_sum = 0;
  bool values_match = true;
  t.for_each([&](std::uint64_t k, const LineEntry& e) {
    ++count;
    key_sum += k;
    values_match = values_match && e.version == k;
  });
  std::uint64_t expect_sum = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k < 300 || k >= 900) expect_sum += k;
  }
  EXPECT_EQ(count, kKeys - 600);
  EXPECT_EQ(key_sum, expect_sum);
  EXPECT_TRUE(values_match);
}

TEST(LineTable, PoolSlotsPlateauUnderChurn) {
  // Sliding window of live keys: erased slots are recycled, so the pool
  // stops growing once the window is full, across many chunk-sizes of
  // churned keys.
  LineTable<LineEntry> t;
  constexpr std::uint64_t kWindow = 700;
  std::size_t plateau = 0;
  for (std::uint64_t k = 0; k < 200000; ++k) {
    t.get_or_create(k);
    if (k >= kWindow) t.erase(k - kWindow);
    if (k == 2 * kWindow) plateau = t.pool_slots();
  }
  EXPECT_LE(plateau, kWindow + 1);
  EXPECT_EQ(t.pool_slots(), plateau);
  EXPECT_EQ(t.size(), kWindow);
}

TEST(LineTable, ClearDestroysAndReusesPool) {
  LineTable<std::vector<int>> t;
  for (std::uint64_t k = 0; k < 100; ++k) t.get_or_create(k).assign(8, 1);
  t.clear();
  EXPECT_EQ(t.pool_slots(), 0u);
  EXPECT_TRUE(t.get_or_create(7).empty());  // fresh value, not a leftover
}

}  // namespace
}  // namespace capmem::sim
