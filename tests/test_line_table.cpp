#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/coherence.hpp"
#include "sim/line_pages.hpp"
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

TEST(LineTable, GrowsPastInitialCapacity) {
  LineTable<LineEntry> t;
  for (std::uint64_t k = 0; k < 100000; ++k) t.get_or_create(k);
  EXPECT_EQ(t.size(), 100000u);
  EXPECT_NE(t.find(99999), nullptr);
}

TEST(LineTable, EmptyTableAnswersWithoutStorage) {
  LineTable<LineEntry> t;
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.pool_slots(), 0u);
  std::size_t visited = 0;
  t.for_each([&](std::uint64_t, const LineEntry&) { ++visited; });
  EXPECT_EQ(visited, 0u);
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

// ------------------------------------------------------------- LinePages

using Pages = LinePages<LineEntry>;

TEST(LinePages, MatchesStdMapUnderRandomOps) {
  // Keys cluster in a few pages (so pages fill, empty and get reused) with
  // some far-apart ones mixed in.
  Pages t;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(91);
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t key = rng.next_below(640);
    if (rng.next_below(8) == 0) key += std::uint64_t{1} << 40;
    switch (rng.next_below(3)) {
      case 0: {
        const auto [h, inserted] = t.try_emplace(key);
        EXPECT_EQ(inserted, ref.count(key) == 0);
        if (inserted) {
          EXPECT_EQ(t.at(h).version, 0u);  // fresh, not reused
        }
        const std::uint64_t v = rng.next_below(1000);
        t.at(h).version = v;
        ref[key] = v;
        break;
      }
      case 1:
        EXPECT_EQ(t.erase(key), ref.erase(key) > 0);
        break;
      default: {
        const LineEntry* found = t.find(key);
        const auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(found, nullptr);
          EXPECT_EQ(t.find_handle(key), Pages::kNoHandle);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(found->version, it->second);
          EXPECT_EQ(&t.at(t.find_handle(key)), found);
        }
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  std::set<std::uint64_t> pages;
  for (const auto& [key, v] : ref) pages.insert(key >> 6);
  EXPECT_EQ(t.live_pages(), pages.size());
}

TEST(LinePages, HandlesAndReferencesStableAcrossInsertsAndDrops) {
  Pages t;
  // Lines 0..63 share page 0; 64.. and 1000.. live in other pages.
  std::vector<Pages::Handle> handles;
  std::vector<LineEntry*> refs;
  for (std::uint64_t k = 0; k < 64; k += 2) {
    const auto [h, inserted] = t.try_emplace(k);
    ASSERT_TRUE(inserted);
    t.at(h).version = k + 1;
    handles.push_back(h);
    refs.push_back(&t.at(h));
  }
  // Same-page churn on the odd lines, plus inserts and drops in other pages
  // (enough to grow the page pool and the page index several times).
  for (std::uint64_t k = 1; k < 64; k += 2) t.get_or_create(k);
  for (std::uint64_t k = 64; k < 64 * 3000; ++k) t.get_or_create(k);
  for (std::uint64_t k = 1; k < 64; k += 4) t.erase(k);
  for (std::uint64_t k = 64; k < 64 * 3000; k += 3) t.erase(k);
  for (std::uint64_t k = 0; k < 64; k += 2) {
    const std::size_t i = k / 2;
    EXPECT_EQ(t.find_handle(k), handles[i]) << k;
    EXPECT_EQ(t.find(k), refs[i]) << k;
    EXPECT_EQ(&t.at(handles[i]), refs[i]);
    EXPECT_EQ(refs[i]->version, k + 1);
    // A live handle re-emplaces to itself.
    EXPECT_EQ(t.try_emplace(k), std::make_pair(handles[i], false));
  }
}

TEST(LinePages, EntriesAreCacheLineAlignedAndAddressOrdered) {
  Pages t;
  for (std::uint64_t k = 128; k < 192; ++k) {
    const auto addr = reinterpret_cast<std::uintptr_t>(&t.get_or_create(k));
    ASSERT_EQ(addr % 64, 0u) << k;
    if (k > 128) {
      EXPECT_EQ(addr - reinterpret_cast<std::uintptr_t>(t.find(k - 1)),
                sizeof(LineEntry));
    }
  }
  EXPECT_EQ(t.live_pages(), 1u);
}

TEST(LinePages, ReleasesEmptyPagesAndReusesThem) {
  Pages t;
  for (std::uint64_t k = 64; k < 128; ++k) t.get_or_create(k);
  EXPECT_EQ(t.live_pages(), 1u);
  for (std::uint64_t k = 64; k < 127; ++k) t.erase(k);
  EXPECT_EQ(t.live_pages(), 1u);  // line 127 still holds the page
  t.erase(127);
  EXPECT_EQ(t.live_pages(), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(100), nullptr);
  // A different page takes the released slot: the pool does not grow.
  t.get_or_create(5000).version = 3;
  EXPECT_EQ(t.pool_pages(), 1u);
  EXPECT_EQ(t.find(5000)->version, 3u);
  EXPECT_EQ(t.find(100), nullptr);  // the old page's lines stay dead
}

TEST(LinePages, PoolPagesPlateauUnderChurn) {
  // 64 interleaved sequential streams of fresh lines, each dropped a window
  // later, the way buffers are flushed between stream iterations.
  Pages t;
  constexpr std::uint64_t kStreams = 64;
  constexpr std::uint64_t kStride = std::uint64_t{1} << 30;
  constexpr std::uint64_t kWindow = 512;
  std::size_t plateau = 0;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    for (std::uint64_t s = 0; s < kStreams; ++s) {
      t.get_or_create(s * kStride + i);
      if (i >= kWindow) {
        ASSERT_TRUE(t.erase(s * kStride + i - kWindow));
      }
    }
    if (i == 4 * kWindow) plateau = t.pool_pages();
  }
  EXPECT_EQ(t.size(), kStreams * kWindow);
  EXPECT_LE(plateau, kStreams * (kWindow / 64 + 1));
  EXPECT_EQ(t.pool_pages(), plateau);
}

TEST(LinePages, ForEachVisitsExactlyTheLiveLines) {
  Pages t;
  std::set<std::uint64_t> live;
  for (std::uint64_t k = 0; k < 64 * 6 + 17; ++k) {
    t.get_or_create(k * 3).version = k * 3;
    live.insert(k * 3);
  }
  for (std::uint64_t k = 100; k < 700; k += 2) {
    t.erase(k);
    live.erase(k);
  }
  std::set<std::uint64_t> seen;
  bool values_match = true;
  t.for_each([&](std::uint64_t k, const LineEntry& e) {
    EXPECT_TRUE(seen.insert(k).second) << "visited twice: " << k;
    values_match = values_match && e.version == k;
  });
  EXPECT_EQ(seen, live);
  EXPECT_TRUE(values_match);
}

TEST(LinePages, WildKeys) {
  Pages t;
  const std::vector<std::uint64_t> keys = {
      0,
      63,
      64,
      std::uint64_t{1} << 50,
      (std::uint64_t{1} << 50) + 1,
      (std::uint64_t{1} << 52) + 63,
      ~std::uint64_t{0} >> 6,  // the largest line of a 64-bit address space
  };
  for (std::uint64_t k : keys) t.get_or_create(k).version = k ^ 1;
  EXPECT_EQ(t.size(), keys.size());
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.find((std::uint64_t{1} << 50) + 2), nullptr);
  for (std::uint64_t k : keys) {
    ASSERT_NE(t.find(k), nullptr) << k;
    EXPECT_EQ(t.find(k)->version, k ^ 1);
  }
  std::vector<std::uint64_t> seen;
  t.for_each([&](std::uint64_t k, const LineEntry&) { seen.push_back(k); });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, keys);
  for (std::uint64_t k : keys) EXPECT_TRUE(t.erase(k)) << k;
  EXPECT_EQ(t.live_pages(), 0u);
}

TEST(LinePages, ResolveRejectsHandlesOutsidePoolAndDeadSlots) {
  Pages t;
  EXPECT_EQ(t.resolve(0), nullptr);  // empty table: no pool at all
  EXPECT_EQ(t.resolve(Pages::kNoHandle), nullptr);
  const auto [h, inserted] = t.try_emplace(130);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(t.resolve(h), t.find(130));
  EXPECT_EQ(t.resolve(h + 1), nullptr);  // line 131: same page, not live
  EXPECT_EQ(t.resolve(64), nullptr);     // slot 1: outside the pool
  EXPECT_EQ(t.resolve(Pages::kNoHandle), nullptr);
  t.erase(130);
  EXPECT_EQ(t.resolve(h), nullptr);
}

}  // namespace
}  // namespace capmem::sim
