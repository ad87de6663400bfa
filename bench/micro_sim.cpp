// Host-level microbenchmarks (google-benchmark) of the simulator's hot
// paths: these bound how large an experiment the DES can afford, which is
// what dictated the scaled sizes documented in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "check/workload.hpp"
#include "common/rng.hpp"
#include "sim/line_table.hpp"
#include "sim/machine.hpp"
#include "snap/snapshot.hpp"
#include "sort/bitonic_net.hpp"

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

// The directory's streaming life cycle: 64 threads each stream through a
// 4096-line buffer of fresh lines (interleaved, as the engine runs them),
// then every buffer is flushed line by line (find + drop, as flush_buffer
// does). ~16 MB of lines per pass, so the table sits beyond the host L2.
void BM_DirectoryStreamChurn(benchmark::State& state) {
  constexpr Line kStreams = 64;
  constexpr Line kLines = 4096;
  constexpr Line kStride = Line{1} << 24;  // buffers far apart
  Directory dir;
  for (auto _ : state) {
    for (Line i = 0; i < kLines; ++i) {
      for (Line s = 0; s < kStreams; ++s) dir.entry(s * kStride + i).version++;
    }
    for (Line s = 0; s < kStreams; ++s) {
      for (Line i = 0; i < kLines; ++i) {
        if (const LineEntry* e = dir.find(s * kStride + i)) {
          benchmark::DoNotOptimize(e->version);
          dir.drop(s * kStride + i);
        }
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kStreams * kLines);
}
BENCHMARK(BM_DirectoryStreamChurn);

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

// The 64-thread stream cells: every core streams fresh lines of its own
// buffer, interleaved one line per core as the engine runs them. An L1
// victim was filled 64 * 512 accesses earlier, so its line's directory
// entry has gone host-cold; the single-core stream above keeps it hot.
void BM_StreamMissAccess64(benchmark::State& state) {
  MachineConfig cfg = knl7210();
  cfg.noise.enabled = false;
  Topology topo(cfg);
  Rng rng(1);
  MemSystem mem(cfg, topo, rng);
  Placement place;
  AccessOpts opts;
  opts.streaming = true;
  constexpr Line kStride = Line{1} << 24;  // buffers far apart
  const int cores = cfg.cores();
  std::vector<Nanos> now(static_cast<std::size_t>(cores), 0.0);
  int core = 0;
  Line line = 0;
  for (auto _ : state) {
    Nanos& t = now[static_cast<std::size_t>(core)];
    t = mem.access(core, core, static_cast<Line>(core) * kStride + line,
                   place, AccessType::kRead, opts, t)
            .finish;
    benchmark::DoNotOptimize(t);
    if (++core == cores) {
      core = 0;
      ++line;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamMissAccess64);

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

// Sort kernels (the sort's per-line host compute): 256 random inputs,
// cycled, so the branch predictor cannot learn one input's outcomes.
std::vector<sort::Vec16> random_lines(std::uint64_t seed, bool sorted) {
  Rng rng(seed);
  std::vector<sort::Vec16> out(256);
  for (auto& v : out) {
    for (auto& x : v) x = static_cast<std::int32_t>(rng.next_u64());
    if (sorted) std::sort(v.begin(), v.end());
  }
  return out;
}

void BM_Merge16(benchmark::State& state) {
  const std::vector<sort::Vec16> lo = random_lines(1, true);
  const std::vector<sort::Vec16> hi = random_lines(2, true);
  std::size_t i = 0;
  for (auto _ : state) {
    sort::Vec16 a = lo[i];
    sort::Vec16 b = hi[i];
    sort::merge16(a, b);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    i = (i + 1) % lo.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Merge16);

void BM_Sort16(benchmark::State& state) {
  const std::vector<sort::Vec16> in = random_lines(3, false);
  std::size_t i = 0;
  for (auto _ : state) {
    sort::Vec16 v = in[i];
    sort::sort16(v);
    benchmark::DoNotOptimize(v);
    i = (i + 1) % in.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sort16);

// Snapshot layer: a serve-sized simulate request (tiny_8t, 6 threads x 40
// ops) paused mid-run. Its ~2.2 MB payload is mostly the empty ways of the
// L1/L2 tag and stamp planes, i.e. zeros.
check::WorkloadSpec snap_spec() {
  check::WorkloadSpec spec;
  spec.threads = 6;
  spec.ops_per_thread = 40;
  spec.seed = 1;
  spec.machine = "tiny_8t";
  return spec;
}

// The live digest: the planes are hashed in place, never copied.
void BM_SnapDigest(benchmark::State& state) {
  check::WorkloadRun run(snap_spec(), nullptr);
  run.run_until(400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap::digest(run.machine()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapDigest)->Unit(benchmark::kMicrosecond);

// The copy alone: what encode pays before it starts.
void BM_SnapCapture(benchmark::State& state) {
  check::WorkloadRun run(snap_spec(), nullptr);
  run.run_until(400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap::capture(run.machine()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapCapture)->Unit(benchmark::kMicrosecond);

void BM_SnapDecode(benchmark::State& state) {
  check::WorkloadRun run(snap_spec(), nullptr);
  run.run_until(400);
  const MachineConfig& cfg = run.machine().config();
  const std::vector<std::uint8_t> bytes =
      snap::encode(snap::capture(run.machine()), cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap::decode(bytes, cfg));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SnapDecode)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
