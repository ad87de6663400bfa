#include "sort/parallel_sort.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/machine.hpp"
#include "sort/merge.hpp"

namespace capmem::sort {

using sim::Addr;
using sim::Ctx;
using sim::Machine;
using sim::MemoryMode;
using sim::Task;

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

SortRun parallel_merge_sort(const sim::MachineConfig& cfg,
                            std::uint64_t bytes, int nthreads,
                            const SortOptions& opts) {
  CAPMEM_CHECK_MSG(is_pow2(bytes) && bytes >= kLineBytes,
                   "bytes must be a power of two >= 64");
  CAPMEM_CHECK_MSG(is_pow2(static_cast<std::uint64_t>(nthreads)),
                   "nthreads must be a power of two");
  // Small inputs cannot feed every thread (one line minimum per worker);
  // the surplus threads still participate — they spin on a completion flag
  // like idle workers of a real runtime would, which is exactly the
  // thread-management overhead the paper's overhead model captures.
  const int workers = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(nthreads), bytes / kLineBytes));

  Machine m(cfg);
  const bool cache_mode = cfg.memory == MemoryMode::kCache;
  const sim::Placement place{cache_mode ? sim::MemKind::kDDR : opts.kind,
                             std::nullopt};
  const Addr buf_a = m.alloc("sort_a", bytes, place, /*with_data=*/true);
  const Addr buf_b = m.alloc("sort_b", bytes, place, /*with_data=*/true);
  // Ready flags: flags[rank * stages + stage] (one writer each).
  const int stages = [&] {
    int s = 0;
    while ((1 << s) < workers) ++s;
    return s;
  }();
  const Addr flags = m.alloc(
      "sort_flags",
      static_cast<std::uint64_t>(workers) *
          static_cast<std::uint64_t>(std::max(1, stages)) * kLineBytes,
      place, /*with_data=*/true);
  const Addr done_flag =
      m.alloc("sort_done", kLineBytes, place, /*with_data=*/true);
  auto flag_addr = [&](int rank, int stage) {
    return flags + (static_cast<std::uint64_t>(rank) *
                        static_cast<std::uint64_t>(std::max(1, stages)) +
                    static_cast<std::uint64_t>(stage)) *
                       kLineBytes;
  };

  // Fill with deterministic pseudo-random keys (host side: the paper's
  // harness also generates input outside the timed region).
  std::uint64_t expected_sum = 0;
  {
    Rng rng(opts.seed);
    std::byte* data = m.space().data(buf_a, bytes);
    for (std::uint64_t i = 0; i < bytes / 4; ++i) {
      const auto key = static_cast<std::int32_t>(rng.next_u64());
      std::memcpy(data + i * 4, &key, 4);
      expected_sum += static_cast<std::uint32_t>(key);
    }
  }

  const std::uint64_t total_lines = bytes / kLineBytes;
  const std::uint64_t chunk_lines =
      total_lines / static_cast<std::uint64_t>(workers);
  // Within-chunk merge levels; parity decides which buffer holds the data
  // after the local phase.
  int local_levels = 0;
  while ((1ull << local_levels) < chunk_lines) ++local_levels;

  const auto slots = sim::make_schedule(cfg, opts.sched, nthreads);
  double makespan = 0;

  for (int rank = workers; rank < nthreads; ++rank) {
    // Surplus threads: wait for completion (idle-worker overhead).
    m.add_thread(slots[static_cast<std::size_t>(rank)],
                 [&](Ctx& ctx) -> Task {
                   co_await ctx.wait_eq(done_flag, 1);
                   makespan = std::max(makespan, ctx.now());
                 });
  }
  for (int rank = 0; rank < workers; ++rank) {
    m.add_thread(slots[static_cast<std::size_t>(rank)],
                 [&, rank](Ctx& ctx) -> Task {
      const std::uint64_t off = static_cast<std::uint64_t>(rank) *
                                chunk_lines * kLineBytes;
      // Leaf pass: sort each line in place.
      co_await sort_lines(ctx, buf_a + off, chunk_lines);
      // Local merge levels with ping-pong buffers.
      Addr src = buf_a;
      Addr dst = buf_b;
      for (int lvl = 0; lvl < local_levels; ++lvl) {
        const std::uint64_t run = 1ull << lvl;  // lines per sorted run
        for (std::uint64_t r = 0; r < chunk_lines; r += 2 * run) {
          const std::uint64_t base = off + r * kLineBytes;
          co_await merge_runs(ctx, dst + base, src + base, run,
                              src + base + run * kLineBytes, run,
                              opts.nt_writes);
        }
        std::swap(src, dst);
      }
      // Cross-thread binary merge tree: at stage s, ranks divisible by
      // 2^(s+1) merge their run with the run of rank + 2^s.
      std::uint64_t run = chunk_lines;
      for (int s = 0; s < stages; ++s) {
        const int partner_bit = 1 << s;
        if (rank & partner_bit) {
          // Publish "my run is ready at stage s" and retire.
          co_await ctx.write_u64(flag_addr(rank, s), 1);
          break;
        }
        if (rank + partner_bit < workers) {
          co_await ctx.wait_eq(flag_addr(rank + partner_bit, s), 1);
          // The partner's run lies directly after mine (rank + 2^s starts
          // at off + run lines once run = chunk * 2^s).
          co_await merge_runs(ctx, dst + off, src + off, run,
                              src + off + run * kLineBytes, run,
                              opts.nt_writes);
          run *= 2;
          std::swap(src, dst);
        }
      }
      if (rank == 0) co_await ctx.write_u64(done_flag, 1);
      makespan = std::max(makespan, ctx.now());
    });
  }
  m.run();

  SortRun result;
  result.total_ns = makespan;
  for (int t = 0; t < nthreads; ++t) {
    result.counters.push_back(m.memsys().counters(t));
  }

  if (opts.verify) {
    // The sorted data lives in buf_a or buf_b depending on the total level
    // parity (local levels + stages swaps).
    const int swaps = local_levels + stages;
    const Addr final_buf = (swaps % 2 == 0) ? buf_a : buf_b;
    const std::byte* data = m.space().data(final_buf, bytes);
    std::uint64_t sum = 0;
    bool sorted = true;
    std::int32_t prev = 0;
    for (std::uint64_t i = 0; i < bytes / 4; ++i) {
      std::int32_t key;
      std::memcpy(&key, data + i * 4, 4);
      sum += static_cast<std::uint32_t>(key);
      if (i > 0 && key < prev) sorted = false;
      prev = key;
    }
    result.sorted_ok = sorted;
    result.checksum_ok = sum == expected_sum;
  }
  return result;
}

}  // namespace capmem::sort
