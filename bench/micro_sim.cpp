// Host-level microbenchmarks (google-benchmark) of the simulator's hot
// paths: these bound how large an experiment the DES can afford, which is
// what dictated the scaled sizes documented in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "sim/line_table.hpp"
#include "sim/machine.hpp"

using namespace capmem;
using namespace capmem::sim;

namespace {

void BM_LineTableChurn(benchmark::State& state) {
  LineTable<LineEntry> table;
  std::uint64_t key = 0;
  for (auto _ : state) {
    LineEntry& e = table.get_or_create(key);
    benchmark::DoNotOptimize(e);
    if (key >= 4096) table.erase(key - 4096);
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineTableChurn);

void BM_LineTableFind(benchmark::State& state) {
  LineTable<LineEntry> table;
  for (std::uint64_t k = 0; k < 100000; ++k) table.get_or_create(k);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(key % 100000));
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineTableFind);

// Directory-sized table: ~800k live lines is the stream workload's
// footprint at 64 threads, far beyond the host caches, probed at random so
// every find pays the table's real slot + entry misses.
void BM_LineTableFindStreamFootprint(benchmark::State& state) {
  constexpr std::uint64_t kKeys = 800000;
  LineTable<LineEntry> table;
  Rng rng(3);
  std::vector<std::uint64_t> keys(kKeys);
  for (auto& k : keys) {
    k = rng.next_u64() >> 6;
    table.get_or_create(k);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[i]));
    i = (i + 7919) % kKeys;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineTableFindStreamFootprint);

void BM_L1HitAccess(benchmark::State& state) {
  MachineConfig cfg = knl7210();
  cfg.noise.enabled = false;
  Topology topo(cfg);
  Rng rng(1);
  MemSystem mem(cfg, topo, rng);
  Placement place;
  Nanos now = 0;
  // Warm one line into L1.
  now = mem.access(0, 0, 5, place, AccessType::kRead, {}, now).finish;
  for (auto _ : state) {
    now = mem.access(0, 0, 5, place, AccessType::kRead, {}, now).finish;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1HitAccess);

void BM_StreamMissAccess(benchmark::State& state) {
  MachineConfig cfg = knl7210();
  cfg.noise.enabled = false;
  Topology topo(cfg);
  Rng rng(1);
  MemSystem mem(cfg, topo, rng);
  Placement place;
  AccessOpts opts;
  opts.streaming = true;
  Nanos now = 0;
  Line line = 0;
  for (auto _ : state) {
    now = mem.access(0, 0, line++, place, AccessType::kRead, opts, now)
              .finish;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamMissAccess);

// Every access evicts an L1 line: one core cycles over 4096 lines (8x its
// 512-line L1, well inside the tile's L2), so after the first pass each
// read is an own-tile L2 hit whose L1 fill displaces the LRU way.
void BM_L1EvictionAccess(benchmark::State& state) {
  MachineConfig cfg = knl7210();
  cfg.noise.enabled = false;
  Topology topo(cfg);
  Rng rng(1);
  MemSystem mem(cfg, topo, rng);
  Placement place;
  constexpr Line kLines = 4096;
  Nanos now = 0;
  for (Line line = 0; line < kLines; ++line)
    now = mem.access(0, 0, line, place, AccessType::kRead, {}, now).finish;
  Line line = 0;
  for (auto _ : state) {
    now = mem.access(0, 0, line, place, AccessType::kRead, {}, now).finish;
    line = (line + 1) % kLines;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1EvictionAccess);

void BM_EngineStepThroughput(benchmark::State& state) {
  // Cost per scheduler round-trip: one task advancing repeatedly.
  const int kSteps = 10000;
  for (auto _ : state) {
    Engine e(1);
    auto prog = []() -> Task {
      for (int i = 0; i < kSteps; ++i) co_await Advance{1.0};
    };
    e.spawn(prog());
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_EngineStepThroughput);

void BM_SpinWakeRoundTrip(benchmark::State& state) {
  // Flag ping-pong between two simulated threads (collective hot path).
  const int kRounds = 500;
  for (auto _ : state) {
    MachineConfig cfg = knl7210();
    cfg.noise.enabled = false;
    Machine m(cfg);
    const Addr a = m.alloc("a", kLineBytes, {}, true);
    const Addr b = m.alloc("b", kLineBytes, {}, true);
    m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
      for (int i = 1; i <= kRounds; ++i) {
        co_await ctx.write_u64(a, static_cast<std::uint64_t>(i));
        co_await ctx.wait_eq(b, static_cast<std::uint64_t>(i));
      }
    });
    m.add_thread({10, 0}, [&](Ctx& ctx) -> Task {
      for (int i = 1; i <= kRounds; ++i) {
        co_await ctx.wait_eq(a, static_cast<std::uint64_t>(i));
        co_await ctx.write_u64(b, static_cast<std::uint64_t>(i));
      }
    });
    m.run();
    benchmark::DoNotOptimize(m.elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRounds);
}
BENCHMARK(BM_SpinWakeRoundTrip);

}  // namespace

BENCHMARK_MAIN();
