// Sort application tests: bitonic network properties (exhaustive-ish),
// timed merge correctness, and the full parallel sort across sizes,
// threads, schedules and memory kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "sim/machine.hpp"
#include "sort/bitonic_net.hpp"
#include "sort/merge.hpp"
#include "sort/parallel_sort.hpp"

namespace capmem::sort {
namespace {

using sim::knl7210;
using sim::MachineConfig;
using sim::MemKind;

Vec16 random_vec(Rng& rng) {
  Vec16 v;
  for (auto& x : v) x = static_cast<std::int32_t>(rng.next_u64());
  return v;
}

TEST(Bitonic, Sort16SortsRandomVectors) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    Vec16 v = random_vec(rng);
    Vec16 ref = v;
    sort16(v);
    std::sort(ref.begin(), ref.end());
    EXPECT_EQ(v, ref);
  }
}

TEST(Bitonic, Sort16ZeroOnePrinciple) {
  // A comparison network sorts everything iff it sorts all 0/1 inputs:
  // check all 65536 of them.
  for (int mask = 0; mask < (1 << 16); ++mask) {
    Vec16 v;
    for (int i = 0; i < 16; ++i) v[static_cast<std::size_t>(i)] = (mask >> i) & 1;
    sort16(v);
    for (int i = 1; i < 16; ++i) {
      ASSERT_LE(v[static_cast<std::size_t>(i - 1)],
                v[static_cast<std::size_t>(i)])
          << "mask=" << mask;
    }
  }
}

TEST(Bitonic, Merge16MergesSortedVectors) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    Vec16 a = random_vec(rng);
    Vec16 b = random_vec(rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::array<std::int32_t, 32> ref;
    std::merge(a.begin(), a.end(), b.begin(), b.end(), ref.begin());
    merge16(a, b);
    for (int k = 0; k < 16; ++k) {
      ASSERT_EQ(a[static_cast<std::size_t>(k)],
                ref[static_cast<std::size_t>(k)]);
      ASSERT_EQ(b[static_cast<std::size_t>(k)],
                ref[static_cast<std::size_t>(k + 16)]);
    }
  }
}

TEST(Bitonic, Merge16ZeroOnePrinciple) {
  // A merging network merges everything iff it merges all sorted 0/1
  // inputs: a sorted 0/1 vector is fixed by its count of ones, so check all
  // 17 x 17 pairs.
  for (int ones_a = 0; ones_a <= 16; ++ones_a) {
    for (int ones_b = 0; ones_b <= 16; ++ones_b) {
      Vec16 a, b;
      for (int i = 0; i < 16; ++i) {
        a[static_cast<std::size_t>(i)] = i >= 16 - ones_a ? 1 : 0;
        b[static_cast<std::size_t>(i)] = i >= 16 - ones_b ? 1 : 0;
      }
      merge16(a, b);
      const int ones = ones_a + ones_b;
      for (int i = 0; i < 32; ++i) {
        const std::int32_t got = i < 16 ? a[static_cast<std::size_t>(i)]
                                        : b[static_cast<std::size_t>(i - 16)];
        ASSERT_EQ(got, i >= 32 - ones ? 1 : 0)
            << "ones_a=" << ones_a << " ones_b=" << ones_b << " i=" << i;
      }
    }
  }
}

// Inputs that catch an unsigned compare (INT_MIN above INT_MAX), a wrong
// lane shuffle (reverse-sorted, duplicates) or a lost value.
std::vector<Vec16> edge_vectors() {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<Vec16> out;
  Vec16 v;
  v.fill(7);
  out.push_back(v);  // all equal
  v.fill(kMin);
  out.push_back(v);
  v.fill(kMax);
  out.push_back(v);
  for (int i = 0; i < 16; ++i) v[static_cast<std::size_t>(i)] = 15 - i;
  out.push_back(v);  // reverse-sorted
  for (int i = 0; i < 16; ++i)
    v[static_cast<std::size_t>(i)] = i % 2 == 0 ? kMax : kMin;
  out.push_back(v);
  for (int i = 0; i < 16; ++i)
    v[static_cast<std::size_t>(i)] = (i % 3 == 0 ? kMin : kMax) - i % 3;
  out.push_back(v);
  for (int i = 0; i < 16; ++i)
    v[static_cast<std::size_t>(i)] = i < 8 ? -1 - i : i;  // signs mixed
  out.push_back(v);
  for (int i = 0; i < 16; ++i) v[static_cast<std::size_t>(i)] = (15 - i) / 4;
  out.push_back(v);  // reverse-sorted runs of duplicates
  Rng rng(3);
  for (int k = 0; k < 8; ++k) {
    for (auto& x : v) {
      const std::uint64_t r = rng.next_u64();
      x = r % 3 == 0 ? kMin : r % 3 == 1 ? kMax : static_cast<std::int32_t>(r);
    }
    out.push_back(v);
  }
  return out;
}

TEST(Bitonic, Sort16ExtremesAndDuplicates) {
  for (Vec16 v : edge_vectors()) {
    Vec16 ref = v;
    std::sort(ref.begin(), ref.end());
    sort16(v);
    EXPECT_EQ(v, ref);
  }
}

TEST(Bitonic, Merge16ExtremesAndDuplicates) {
  const std::vector<Vec16> vs = edge_vectors();
  for (Vec16 a0 : vs) {
    for (Vec16 b0 : vs) {
      std::sort(a0.begin(), a0.end());
      std::sort(b0.begin(), b0.end());
      std::array<std::int32_t, 32> ref;
      std::merge(a0.begin(), a0.end(), b0.begin(), b0.end(), ref.begin());
      Vec16 a = a0, b = b0;
      merge16(a, b);
      for (int k = 0; k < 16; ++k) {
        ASSERT_EQ(a[static_cast<std::size_t>(k)],
                  ref[static_cast<std::size_t>(k)]);
        ASSERT_EQ(b[static_cast<std::size_t>(k)],
                  ref[static_cast<std::size_t>(k + 16)]);
      }
    }
  }
}

TEST(Bitonic, CostConstantsPositive) {
  EXPECT_GT(sort16_ns(), 0);
  EXPECT_GT(merge16_ns(), 0);
  EXPECT_GT(sort16_ns(), merge16_ns());  // full sort > single merge step
}

TEST(MergeOp, MergesTwoRunsOnTheMachine) {
  MachineConfig cfg = knl7210();
  cfg.noise.enabled = false;
  sim::Machine m(cfg);
  const std::uint64_t n1 = 8, n2 = 8;
  const sim::Addr a = m.alloc("a", n1 * kLineBytes, {}, true);
  const sim::Addr b = m.alloc("b", n2 * kLineBytes, {}, true);
  const sim::Addr out = m.alloc("out", (n1 + n2) * kLineBytes, {}, true);
  Rng rng(5);
  std::vector<std::int32_t> va(n1 * 16), vb(n2 * 16);
  for (auto& x : va) x = static_cast<std::int32_t>(rng.next_u64());
  for (auto& x : vb) x = static_cast<std::int32_t>(rng.next_u64());
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  std::memcpy(m.space().data(a, n1 * kLineBytes), va.data(),
              n1 * kLineBytes);
  std::memcpy(m.space().data(b, n2 * kLineBytes), vb.data(),
              n2 * kLineBytes);
  double dt = 0;
  m.add_thread({0, 0}, [&](sim::Ctx& ctx) -> sim::Task {
    const Nanos t0 = ctx.now();
    co_await merge_runs(ctx, out, a, n1, b, n2);
    dt = ctx.now() - t0;
  });
  m.run();
  std::vector<std::int32_t> ref;
  ref.insert(ref.end(), va.begin(), va.end());
  ref.insert(ref.end(), vb.begin(), vb.end());
  std::sort(ref.begin(), ref.end());
  const auto* got = reinterpret_cast<const std::int32_t*>(
      m.space().data(out, (n1 + n2) * kLineBytes));
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(got[i], ref[i]);
  // Timing sanity: n reads + n writes at >= L1 cost plus network compute.
  EXPECT_GT(dt, (n1 + n2) * 2 * 3.0);
}

TEST(MergeOp, UnevenRunLengths) {
  MachineConfig cfg = knl7210();
  cfg.noise.enabled = false;
  sim::Machine m(cfg);
  const std::uint64_t n1 = 1, n2 = 15;
  const sim::Addr a = m.alloc("a", n1 * kLineBytes, {}, true);
  const sim::Addr b = m.alloc("b", n2 * kLineBytes, {}, true);
  const sim::Addr out = m.alloc("out", (n1 + n2) * kLineBytes, {}, true);
  auto* pa = reinterpret_cast<std::int32_t*>(m.space().data(a, n1 * 64));
  auto* pb = reinterpret_cast<std::int32_t*>(m.space().data(b, n2 * 64));
  for (std::uint64_t i = 0; i < n1 * 16; ++i)
    pa[i] = static_cast<std::int32_t>(i * 31);
  for (std::uint64_t i = 0; i < n2 * 16; ++i)
    pb[i] = static_cast<std::int32_t>(i * 2);
  m.add_thread({0, 0}, [&](sim::Ctx& ctx) -> sim::Task {
    co_await merge_runs(ctx, out, a, n1, b, n2);
  });
  m.run();
  const auto* got = reinterpret_cast<const std::int32_t*>(
      m.space().data(out, (n1 + n2) * kLineBytes));
  for (std::uint64_t i = 1; i < (n1 + n2) * 16; ++i)
    ASSERT_LE(got[i - 1], got[i]);
}

TEST(MergeOp, RunCrossingItsAllocationThrows) {
  // The output run is one line longer than its buffer: the whole-run bounds
  // check rejects it before any line moves.
  MachineConfig cfg = knl7210();
  sim::Machine m(cfg);
  const std::uint64_t n1 = 2, n2 = 2;
  const sim::Addr a = m.alloc("a", n1 * kLineBytes, {}, true);
  const sim::Addr b = m.alloc("b", n2 * kLineBytes, {}, true);
  const sim::Addr out = m.alloc("out", (n1 + n2 - 1) * kLineBytes, {}, true);
  m.add_thread({0, 0}, [&](sim::Ctx& ctx) -> sim::Task {
    co_await merge_runs(ctx, out, a, n1, b, n2);
  });
  EXPECT_THROW(m.run(), CheckError);
}

TEST(MergeOp, InputRunCrossingIntoTheNextAllocationThrows) {
  // `a` is followed directly by `b`: a run of a that spills into b is still
  // a run that crosses its allocation.
  MachineConfig cfg = knl7210();
  sim::Machine m(cfg);
  const sim::Addr a = m.alloc("a", 2 * kLineBytes, {}, true);
  const sim::Addr b = m.alloc("b", 2 * kLineBytes, {}, true);
  const sim::Addr out = m.alloc("out", 6 * kLineBytes, {}, true);
  m.add_thread({0, 0}, [&](sim::Ctx& ctx) -> sim::Task {
    co_await merge_runs(ctx, out, a, 3, b, 2);
  });
  EXPECT_THROW(m.run(), CheckError);
}

TEST(SortLines, SortsEachLineIndependently) {
  MachineConfig cfg = knl7210();
  sim::Machine m(cfg);
  const std::uint64_t lines = 4;
  const sim::Addr buf = m.alloc("b", lines * kLineBytes, {}, true);
  Rng rng(7);
  auto* p = reinterpret_cast<std::int32_t*>(
      m.space().data(buf, lines * kLineBytes));
  for (std::uint64_t i = 0; i < lines * 16; ++i)
    p[i] = static_cast<std::int32_t>(rng.next_u64());
  std::vector<std::int32_t> ref(p, p + lines * 16);
  m.add_thread({0, 0}, [&](sim::Ctx& ctx) -> sim::Task {
    co_await sort_lines(ctx, buf, lines);
  });
  m.run();
  for (std::uint64_t l = 0; l < lines; ++l) {
    std::sort(ref.begin() + static_cast<std::ptrdiff_t>(l * 16),
              ref.begin() + static_cast<std::ptrdiff_t>((l + 1) * 16));
    for (int k = 0; k < 16; ++k)
      ASSERT_EQ(p[l * 16 + static_cast<std::uint64_t>(k)],
                ref[l * 16 + static_cast<std::uint64_t>(k)]);
  }
}

struct SortCase {
  std::uint64_t bytes;
  int threads;
};

class SortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortSweep, SortsCorrectly) {
  const SortCase c = GetParam();
  SortOptions o;
  o.kind = MemKind::kMCDRAM;
  const SortRun r = parallel_merge_sort(knl7210(), c.bytes, c.threads, o);
  EXPECT_TRUE(r.sorted_ok);
  EXPECT_TRUE(r.checksum_ok);
  EXPECT_GT(r.total_ns, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SortSweep,
    ::testing::Values(SortCase{64, 1}, SortCase{KiB(1), 1},
                      SortCase{KiB(1), 16}, SortCase{KiB(1), 256},
                      SortCase{KiB(16), 4}, SortCase{KiB(64), 8},
                      SortCase{KiB(256), 32}, SortCase{MiB(1), 64},
                      SortCase{MiB(1), 2}),
    [](const ::testing::TestParamInfo<SortCase>& info) {
      return std::to_string(info.param.bytes) + "B_" +
             std::to_string(info.param.threads) + "t";
    });

TEST(ParallelSort, DramAndCacheModeWork) {
  SortOptions o;
  o.kind = MemKind::kDDR;
  EXPECT_TRUE(parallel_merge_sort(knl7210(), KiB(64), 8, o).sorted_ok);
  MachineConfig cache = knl7210(sim::ClusterMode::kQuadrant,
                                sim::MemoryMode::kCache);
  cache.scale_memory(256);
  const SortRun r = parallel_merge_sort(cache, KiB(64), 8, o);
  EXPECT_TRUE(r.sorted_ok && r.checksum_ok);
}

TEST(ParallelSort, DifferentSeedsDifferentDataStillSorted) {
  for (std::uint64_t seed : {1ull, 42ull, 12345ull}) {
    SortOptions o;
    o.seed = seed;
    EXPECT_TRUE(parallel_merge_sort(knl7210(), KiB(32), 4, o).sorted_ok);
  }
}

TEST(ParallelSort, MoreThreadsHelpLargeInputs) {
  SortOptions o;
  const double t1 = parallel_merge_sort(knl7210(), MiB(1), 1, o).total_ns;
  const double t16 = parallel_merge_sort(knl7210(), MiB(1), 16, o).total_ns;
  EXPECT_GT(t1, t16 * 2.0);
}

TEST(ParallelSort, McdramDoesNotBeatDramAtScale) {
  // The paper's headline result, as a regression test.
  SortOptions d;
  d.kind = MemKind::kDDR;
  SortOptions m2;
  m2.kind = MemKind::kMCDRAM;
  const double td = parallel_merge_sort(knl7210(), MiB(4), 64, d).total_ns;
  const double tm = parallel_merge_sort(knl7210(), MiB(4), 64, m2).total_ns;
  EXPECT_LT(td / tm, 1.15);  // MCDRAM gains nothing meaningful
}

TEST(ParallelSort, RejectsBadArguments) {
  EXPECT_THROW(parallel_merge_sort(knl7210(), 100, 2, {}), CheckError);
  EXPECT_THROW(parallel_merge_sort(knl7210(), KiB(1), 3, {}), CheckError);
}

TEST(ParallelSort, DeterministicAcrossRuns) {
  SortOptions o;
  const double a = parallel_merge_sort(knl7210(), KiB(64), 8, o).total_ns;
  const double b = parallel_merge_sort(knl7210(), KiB(64), 8, o).total_ns;
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace capmem::sort
