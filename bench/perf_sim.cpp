// perf_sim: event-throughput microbenchmark for the simulator hot path.
//
// Runs 3 representative workloads x 3 cluster modes and reports engine
// events/sec, ns/event and peak RSS. Each cell is repeated --reps times on
// a fresh Machine; the virtual-time result (steps, virt_ns) must be
// bit-identical across reps — a mismatch is a determinism bug and exits
// nonzero. Wall-clock numbers are informational only and never gate.
//
// Workloads (sized so a full run finishes in ~a minute on one core):
//   barrier  dissemination barrier rounds over per-(thread,stage) flag
//            lines — park/unpark and run-queue heavy (the fig6 shape).
//   triad    per-thread private STREAM-triad buffers — channel reservation
//            and scheduler-callback (RangeOp pump) heavy (the fig9 shape).
//   mixed    per-thread random single-line loads/stores plus occasional
//            fetch_add on a shared buffer — directory/line-table heavy.
//
// CHECKSUM lines carry the deterministic part of each cell. The ctest
// goldens golden_perf_sim_quick, golden_perf_sim and
// golden_perf_sim_quick_{mesi,mosi} compare exactly those lines against
// tests/golden/perf_sim*.txt, so a simulated-timing change fails tier-1.
//
// --warm-snapshot appends a warm-start sweep: one machine executes a warm
// prefix (the mixed workload), its quiescent state is captured once with
// capmem::snap, and --forks measurement cells are forked from it — vs a
// cold baseline that re-executes the prefix per cell. Both paths go
// through snap::fork, so their virtual-time results are CHECK-identical;
// only wall clock differs, and the speedup N*(W+M) / (W+N*M) is printed
// on the "warm-start" lines.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "exec/host.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "snap/snapshot.hpp"

using namespace capmem;
using namespace capmem::sim;

namespace {

struct CellSpec {
  std::string workload;
  ClusterMode mode;
  int threads = 0;
};

struct CellResult {
  std::uint64_t steps = 0;
  Nanos virt_ns = 0;
  double best_wall_s = 0;
};

struct Sizes {
  int barrier_threads, barrier_iters;
  int triad_threads, triad_iters;
  std::uint64_t triad_bytes;
  int mixed_threads, mixed_ops;
};

Sizes full_sizes() { return {64, 200, 16, 3, KiB(256), 32, 3000}; }
Sizes quick_sizes() { return {16, 10, 8, 2, KiB(64), 8, 300}; }

int log2_floor(int n) {
  int k = 0;
  while ((1 << (k + 1)) <= n) ++k;
  return k;
}

/// Dissemination-barrier rounds: thread i in stage k signals partner
/// (i + 2^k) mod n and spins on its own flag, one cache line per
/// (thread, stage) slot. Flags carry the iteration number so lines are
/// reused (and waiter lists on them churn) across iterations.
void build_barrier(Machine& m, int nthreads, int iters) {
  const int stages = log2_floor(nthreads);
  const Addr flags = m.alloc("flags",
                             static_cast<std::uint64_t>(nthreads) * stages *
                                 kLineBytes,
                             {}, /*with_data=*/true);
  auto flag = [=](int tid, int stage) {
    return flags + (static_cast<std::uint64_t>(tid) * stages + stage) *
                       kLineBytes;
  };
  for (int i = 0; i < nthreads; ++i) {
    m.add_thread({.core = i % 64, .smt = i / 64},
                 [=, n = nthreads](Ctx& ctx) -> Task {
                   for (int it = 1; it <= iters; ++it) {
                     for (int k = 0; k < stages; ++k) {
                       const int partner = (i + (1 << k)) % n;
                       co_await ctx.write_u64(
                           flag(partner, k),
                           static_cast<std::uint64_t>(it));
                       co_await ctx.wait_eq(flag(i, k),
                                            static_cast<std::uint64_t>(it));
                     }
                   }
                 });
  }
}

/// Private STREAM triad per thread: a[i] = b[i] + s*c[i] over dataless
/// buffers, chunked one line per scheduler step (the fig9 shape).
void build_triad(Machine& m, int nthreads, int iters,
                 std::uint64_t bytes) {
  for (int i = 0; i < nthreads; ++i) {
    const std::string p = "t" + std::to_string(i);
    const Addr a = m.alloc(p + ".a", bytes);
    const Addr b = m.alloc(p + ".b", bytes);
    const Addr c = m.alloc(p + ".c", bytes);
    m.add_thread({.core = i % 64, .smt = i / 64}, [=](Ctx& ctx) -> Task {
      for (int it = 0; it < iters; ++it) {
        co_await ctx.triad(a, b, c, bytes, {.nt = true});
        co_await ctx.sync();
      }
    });
  }
}

/// Random single-line traffic over one shared buffer: mostly loads, some
/// stores, occasional fetch_add — stresses the directory and line tables
/// with an adversarial (hash-scattered) access pattern.
void build_mixed(Machine& m, int nthreads, int ops, std::uint64_t seed,
                 const char* buf_name = "shared") {
  const std::uint64_t lines = 4096;
  const Addr buf = m.alloc(buf_name, lines * kLineBytes, {},
                           /*with_data=*/true);
  for (int i = 0; i < nthreads; ++i) {
    m.add_thread({.core = i % 64, .smt = i / 64}, [=](Ctx& ctx) -> Task {
      Rng rng(seed ^ (0x5bf0315ull * (i + 1)));
      for (int op = 0; op < ops; ++op) {
        const Addr a = buf + rng.next_below(lines) * kLineBytes;
        const std::uint64_t kind = rng.next_below(100);
        if (kind < 70) {
          co_await ctx.read_u64(a);
        } else if (kind < 95) {
          co_await ctx.write_u64(a, rng.next_u64());
        } else {
          co_await ctx.fetch_add_u64(a, 1);
        }
      }
    });
  }
}

CellResult run_cell(const CellSpec& spec, const Sizes& sz, int reps,
                    std::uint64_t seed, Protocol protocol) {
  CellResult r;
  for (int rep = 0; rep < reps; ++rep) {
    MachineConfig cfg = knl7210(spec.mode, MemoryMode::kFlat);
    cfg.protocol = protocol;
    Machine m(cfg);
    if (spec.workload == "barrier") {
      build_barrier(m, sz.barrier_threads, sz.barrier_iters);
    } else if (spec.workload == "triad") {
      build_triad(m, sz.triad_threads, sz.triad_iters, sz.triad_bytes);
    } else {
      build_mixed(m, sz.mixed_threads, sz.mixed_ops, seed);
    }
    const double t0 = exec::host_now_seconds();
    m.run();
    const double wall = exec::host_now_seconds() - t0;
    const std::uint64_t steps = m.engine().steps();
    const Nanos virt = m.elapsed();
    if (rep == 0) {
      r.steps = steps;
      r.virt_ns = virt;
      r.best_wall_s = wall;
    } else {
      CAPMEM_CHECK_MSG(steps == r.steps && virt == r.virt_ns,
                       "nondeterministic cell " << spec.workload << "/"
                       << to_string(spec.mode) << ": rep " << rep
                       << " gave steps=" << steps << " virt=" << virt
                       << " vs steps=" << r.steps << " virt=" << r.virt_ns);
      if (wall < r.best_wall_s) r.best_wall_s = wall;
    }
  }
  return r;
}

struct WarmStart {
  int forks = 0;
  std::string snapshot_id;
  std::uint64_t snapshot_bytes = 0;
  double cold_wall_s = 0;  ///< N x (warm prefix + fork + measure)
  double warm_wall_s = 0;  ///< 1 x warm prefix + N x (fork + measure)
  double speedup = 0;
  std::uint64_t prefix_steps = 0;     ///< steps in the shared warm prefix
  std::uint64_t measure_steps = 0;    ///< total steps across the N forks
};

/// Warm-start sweep: the mixed workload as the warm prefix, barrier cells
/// as the forked measurements. The cold baseline re-runs the prefix per
/// cell but still forks from its snapshot — identical measurement results
/// by construction, so any cold/warm divergence is a snapshot bug.
WarmStart run_warm_start(const Sizes& sz, int forks, std::uint64_t seed,
                         Protocol protocol) {
  WarmStart w;
  w.forks = forks;
  MachineConfig cfg = knl7210(ClusterMode::kQuadrant, MemoryMode::kFlat);
  cfg.protocol = protocol;

  const auto warm_bytes = [&] {
    Machine m(cfg);
    build_mixed(m, sz.mixed_threads, sz.mixed_ops, seed, "warm");
    m.run();
    w.prefix_steps = m.engine().steps();
    return snap::encode(snap::capture(m), cfg);
  };
  const auto measure = [&](const std::vector<std::uint8_t>& bytes,
                           std::uint64_t fork_seed) {
    const state::MachineState s = snap::decode(bytes, cfg);
    std::unique_ptr<Machine> m = snap::fork(s, cfg, fork_seed);
    build_barrier(*m, sz.barrier_threads, sz.barrier_iters);
    m->run();
    return std::pair<std::uint64_t, Nanos>{m->engine().steps(),
                                           m->elapsed()};
  };

  // Cold baseline: every measurement cell pays the warm prefix again.
  std::vector<std::pair<std::uint64_t, Nanos>> cold;
  double t0 = exec::host_now_seconds();
  for (int f = 1; f <= forks; ++f) {
    cold.push_back(measure(warm_bytes(), static_cast<std::uint64_t>(f)));
  }
  w.cold_wall_s = exec::host_now_seconds() - t0;

  // Warm: one prefix, one capture, N forks.
  t0 = exec::host_now_seconds();
  const std::vector<std::uint8_t> bytes = warm_bytes();
  std::vector<std::pair<std::uint64_t, Nanos>> warm;
  for (int f = 1; f <= forks; ++f) {
    warm.push_back(measure(bytes, static_cast<std::uint64_t>(f)));
  }
  w.warm_wall_s = exec::host_now_seconds() - t0;

  w.snapshot_id = snap::snapshot_id(bytes);
  w.snapshot_bytes = bytes.size();
  for (int f = 0; f < forks; ++f) {
    const std::size_t fi = static_cast<std::size_t>(f);
    CAPMEM_CHECK_MSG(
        cold[fi] == warm[fi],
        "warm-started fork " << (f + 1) << " diverged from cold: steps "
        << warm[fi].first << " vs " << cold[fi].first << ", virt "
        << warm[fi].second << " vs " << cold[fi].second);
    w.measure_steps += warm[fi].first;
  }
  w.speedup = w.warm_wall_s > 0 ? w.cold_wall_s / w.warm_wall_s : 0.0;
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool quick = cli.get_flag("quick", false);
  const int reps = static_cast<int>(cli.get_int("reps", quick ? 2 : 3));
  const std::string only_workload = cli.get_string("workload", "all");
  const std::string only_mode = cli.get_string("mode", "all");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 4242));
  const Protocol protocol = parse_protocol(cli.get_string(
      "protocol", "mesif",
      "coherence protocol for every cell (mesif, mesi, mosi)"));
  const bool warm_snapshot = cli.get_flag(
      "warm-snapshot", false,
      "append a warm-start sweep: fork --forks measurement cells from one "
      "captured warm prefix vs re-running the prefix per cell");
  const int forks = static_cast<int>(cli.get_int(
      "forks", 8, "measurement cells forked from the warm snapshot"));
  cli.finish();

  const Sizes sz = quick ? quick_sizes() : full_sizes();
  std::vector<CellSpec> cells;
  for (const std::string w : {"barrier", "triad", "mixed"}) {
    if (only_workload != "all" && only_workload != w) continue;
    for (ClusterMode mode :
         {ClusterMode::kQuadrant, ClusterMode::kSNC4, ClusterMode::kA2A}) {
      if (only_mode != "all" && only_mode != to_string(mode)) continue;
      int threads = w == "barrier"  ? sz.barrier_threads
                    : w == "triad" ? sz.triad_threads
                                   : sz.mixed_threads;
      cells.push_back({w, mode, threads});
    }
  }

  std::printf("perf_sim (%s, reps=%d)\n", quick ? "quick" : "full", reps);
  std::printf("%-8s %-5s %8s %12s %16s %12s %10s\n", "workload", "mode",
              "threads", "steps", "virt_ns", "events/sec", "ns/event");
  for (const CellSpec& spec : cells) {
    const CellResult r = run_cell(spec, sz, reps, seed, protocol);
    const double evs = r.best_wall_s > 0
                           ? static_cast<double>(r.steps) / r.best_wall_s
                           : 0.0;
    const double nspe = r.steps > 0 ? 1e9 * r.best_wall_s /
                                          static_cast<double>(r.steps)
                                    : 0.0;
    std::printf("%-8s %-5s %8d %12llu %16.6g %12.4g %10.1f\n",
                spec.workload.c_str(), to_string(spec.mode), spec.threads,
                static_cast<unsigned long long>(r.steps), r.virt_ns, evs,
                nspe);
    // Deterministic payload for cross-build comparison: never includes
    // wall-clock numbers.
    std::printf("CHECKSUM %s %s steps=%llu virt_ns=%.17g\n",
                spec.workload.c_str(), to_string(spec.mode),
                static_cast<unsigned long long>(r.steps), r.virt_ns);
  }
  if (warm_snapshot) {
    const WarmStart warm = run_warm_start(sz, forks, seed, protocol);
    std::printf("warm-start forks=%d snapshot=%s (%llu bytes) "
                "prefix_steps=%llu measure_steps=%llu\n",
                warm.forks, warm.snapshot_id.c_str(),
                static_cast<unsigned long long>(warm.snapshot_bytes),
                static_cast<unsigned long long>(warm.prefix_steps),
                static_cast<unsigned long long>(warm.measure_steps));
    std::printf("warm-start cold=%.3fs warm=%.3fs speedup=%.2fx\n",
                warm.cold_wall_s, warm.warm_wall_s, warm.speedup);
  }
  std::printf("peak_rss_bytes=%llu\n",
              static_cast<unsigned long long>(exec::host_peak_rss_bytes()));
  return 0;
}
