#include "bench/suite.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"
#include "common/log.hpp"
#include "exec/pool.hpp"

namespace capmem::bench {

using sim::MemKind;
using sim::MemoryMode;
using sim::Schedule;

namespace {

// Victim cores sampled for the remote-latency range cells.
std::vector<int> remote_victims(const sim::MachineConfig& cfg, int samples) {
  std::vector<int> victims;
  const int step = std::max(1, cfg.active_tiles / (samples + 1));
  for (int k = 1; k <= samples; ++k) {
    const int victim = (k * step % cfg.active_tiles) * cfg.cores_per_tile;
    if (victim / cfg.cores_per_tile == 0) continue;  // skip probe tile
    victims.push_back(victim);
  }
  return victims;
}

// Pools the per-victim summaries of one state into one Summary plus the
// min/max-of-medians range (the paper's "107-122"-style cells).
struct Pooled {
  Summary pooled;
  Range range;
};

Pooled pool_remote(const std::vector<Summary>& per_victim) {
  std::vector<double> meds;
  meds.reserve(per_victim.size());
  for (const Summary& s : per_victim) meds.push_back(s.median);
  Pooled out;
  out.pooled = summarize(meds);
  out.range.lo = *std::min_element(meds.begin(), meds.end());
  out.range.hi = *std::max_element(meds.begin(), meds.end());
  return out;
}

// One suite's planned cells and the slots they write. The jobs of a batch
// capture a plan by reference, so plans never move once planned.
struct SuitePlan {
  SuiteResults r;
  std::vector<int> victims;
  std::vector<Summary> remote_slots[3];
  Summary sweep_slots[4];
  std::vector<Summary> cont_slots;
  std::vector<int> pair_counts;
  std::vector<Summary> cong_slots;
};

const PrepState kRemoteStates[3] = {PrepState::kM, PrepState::kE,
                                    PrepState::kF};
const std::uint64_t kSweepBytes[4] = {kLineBytes, KiB(1), KiB(8), KiB(64)};
const StreamOp kOps[4] = {StreamOp::kCopy, StreamOp::kRead, StreamOp::kWrite,
                          StreamOp::kTriad};

// Every cell below builds its own Machine and writes one exclusive slot of
// `p`. Its start hint is the threads it runs, or for a stream kernel the
// bytes all its threads move (bench::stream_cost), so the long stream cells
// start first and the short cache-to-cache cells fill in behind them.
void plan_suite(SuitePlan& p, const SuiteOptions& opts,
                std::vector<std::function<void()>>& jobs,
                exec::JobCosts& cost) {
  SuiteResults& r = p.r;
  const sim::MachineConfig& cfg = r.cfg;
  auto add = [&](double hint, std::function<void()> job) {
    jobs.push_back(std::move(job));
    cost.push_back(hint);
  };

  // --- Cache-to-cache latency cells (Table I top half) ---
  C2COptions copts;
  copts.run = opts.run;
  // L1: re-read on the same core.
  add(2, [&r, copts] {
    r.lat_l1 = c2c_read_latency(r.cfg, 0, 0, PrepState::kE, copts);
  });
  // Same tile: victim core 1, probe core 0.
  add(2, [&r, copts] {
    r.lat_tile_m = c2c_read_latency(r.cfg, 1, 0, PrepState::kM, copts);
  });
  add(2, [&r, copts] {
    r.lat_tile_e = c2c_read_latency(r.cfg, 1, 0, PrepState::kE, copts);
  });
  add(3, [&r, copts] {
    r.lat_tile_sf = c2c_read_latency(r.cfg, 1, 0, PrepState::kS, copts);
  });
  // Remote tiles: several victims per state for the range cells.
  p.victims = remote_victims(cfg, opts.remote_samples);
  CAPMEM_CHECK_MSG(!p.victims.empty(), "no remote victim tiles to sample");
  for (int si = 0; si < 3; ++si) {
    p.remote_slots[si].resize(p.victims.size());
    for (std::size_t vi = 0; vi < p.victims.size(); ++vi) {
      add(kRemoteStates[si] == PrepState::kF ? 3 : 2, [&p, copts, si, vi] {
        p.remote_slots[si][vi] =
            c2c_read_latency(p.r.cfg, p.victims[vi], /*probe=*/0,
                             kRemoteStates[si], copts);
      });
    }
  }

  // --- Multi-line transfers (Table I bandwidth cells) ---
  MultilineOptions mopts;
  mopts.run = opts.run;
  const int remote_core =
      (cfg.active_tiles / 2) * cfg.cores_per_tile;  // far tile
  const std::uint64_t msg = KiB(64);
  add(2, [&r, mopts, remote_core, msg] {
    r.bw_read_remote = multiline_bw(r.cfg, remote_core, 0, msg,
                                    XferOp::kRead, PrepState::kE, mopts);
  });
  add(2, [&r, mopts, remote_core, msg] {
    r.bw_copy_remote = multiline_bw(r.cfg, remote_core, 0, msg,
                                    XferOp::kCopy, PrepState::kE, mopts);
  });
  add(2, [&r, mopts, msg] {
    r.bw_copy_tile_m =
        multiline_bw(r.cfg, 1, 0, msg, XferOp::kCopy, PrepState::kM, mopts);
  });
  add(2, [&r, mopts, msg] {
    r.bw_copy_tile_e =
        multiline_bw(r.cfg, 1, 0, msg, XferOp::kCopy, PrepState::kE, mopts);
  });
  // Size sweep for the alpha + beta*N multi-line law.
  for (int i = 0; i < 4; ++i) {
    add(2, [&p, mopts, remote_core, i] {
      p.sweep_slots[i] =
          multiline_bw(p.r.cfg, remote_core, 0, kSweepBytes[i],
                       XferOp::kCopy, PrepState::kM, mopts);
    });
  }

  // --- Contention / congestion ---
  ContentionOptions cnopts;
  cnopts.run = opts.run;
  p.cont_slots.resize(opts.contention_ns.size());
  for (std::size_t i = 0; i < opts.contention_ns.size(); ++i) {
    const int n = opts.contention_ns[i];
    add(n + 1, [&p, cnopts, n, i] {
      p.cont_slots[i] = contention_point(p.r.cfg, n, cnopts);
    });
  }
  CongestionOptions cgopts;
  cgopts.run = opts.run;  // one RunOpts threaded through, then adjusted
  cgopts.run.iters = std::max(11, opts.run.iters / 4);
  p.pair_counts = {1, 2, 4, std::max(4, cfg.active_tiles / 4)};
  p.cong_slots.resize(p.pair_counts.size());
  for (std::size_t i = 0; i < p.pair_counts.size(); ++i) {
    const int pairs = p.pair_counts[i];
    add(2 * pairs, [&p, cgopts, pairs, i] {
      p.cong_slots[i] = congestion_point(p.r.cfg, pairs, cgopts);
    });
  }

  // --- Memory latency (Table II) ---
  MemLatencyOptions lopts;
  lopts.run = opts.run;
  add(1, [&r, lopts] {
    r.mem_lat_dram = memory_latency(r.cfg, MemKind::kDDR, lopts);
  });
  if (cfg.memory != MemoryMode::kCache) {
    add(1, [&r, lopts] {
      r.mem_lat_mcdram = memory_latency(r.cfg, MemKind::kMCDRAM, lopts);
    });
  }

  // --- Stream kernels (Table II bandwidth) ---
  if (!opts.streams) return;
  const bool flat_kinds = cfg.memory != MemoryMode::kCache;
  r.has_mcdram_streams = flat_kinds;
  r.has_streams = true;
  auto add_stream = [&](StreamOp op, const StreamConfig& sc,
                        StreamResult* slot) {
    add(stream_cost(op, sc),
        [&r, op, sc, slot] { *slot = stream_bench(r.cfg, op, sc); });
  };
  for (int oi = 0; oi < 4; ++oi) {
    for (int ki = 0; ki < (flat_kinds ? 2 : 1); ++ki) {
      const MemKind kind = ki == 0 ? MemKind::kDDR : MemKind::kMCDRAM;
      StreamConfig sc;
      sc.kind = kind;
      sc.run = opts.run;  // one RunOpts threaded through, then adjusted
      if (opts.fast) {
        sc.run.iters = 5;
        sc.buffer_bytes = KiB(128);
        sc.nthreads = std::min(16, cfg.cores());
        sc.pool_buffers = 2;
      } else {
        sc.run.iters = 9;
        sc.buffer_bytes = KiB(256);
        // DRAM saturates with ~16 cores; MCDRAM needs the full chip.
        sc.nthreads =
            kind == MemKind::kDDR ? std::min(16, cfg.cores()) : cfg.cores();
        sc.sched = Schedule::kFillTiles;
      }
      sc.nt = true;
      StreamConfig nt_random = sc;
      nt_random.randomize = true;
      StreamConfig stream_peak = sc;
      stream_peak.randomize = false;  // classic STREAM: fixed buffers
      add_stream(kOps[oi], nt_random, &r.stream[oi][ki].nt_random);
      add_stream(kOps[oi], stream_peak, &r.stream[oi][ki].stream_peak);
      if (kOps[oi] == StreamOp::kCopy) {
        StreamConfig one = nt_random;
        one.nthreads = 1;
        add_stream(StreamOp::kCopy, one, &r.copy_1thread[ki]);
      }
    }
  }
}

// Reduces one suite's slots (planning order; pure functions of the slot
// values).
void reduce_suite(SuitePlan& p, const SuiteOptions& opts) {
  SuiteResults& r = p.r;
  for (int si = 0; si < 3; ++si) {
    const Pooled pooled = pool_remote(p.remote_slots[si]);
    switch (kRemoteStates[si]) {
      case PrepState::kM:
        r.lat_remote_m = pooled.pooled;
        r.range_remote_m = pooled.range;
        break;
      case PrepState::kE:
        r.lat_remote_e = pooled.pooled;
        r.range_remote_e = pooled.range;
        break;
      default:
        r.lat_remote_sf = pooled.pooled;
        r.range_remote_sf = pooled.range;
        break;
    }
  }
  {
    std::vector<double> xs, ys;
    for (int i = 0; i < 4; ++i) {
      xs.push_back(static_cast<double>(lines_for(kSweepBytes[i])));
      ys.push_back(static_cast<double>(kSweepBytes[i]) /
                   p.sweep_slots[i].median);  // ns
    }
    r.multiline_ns = fit_linear(xs, ys);
  }
  {
    r.contention.per_n.name = "contention-1:N";
    std::vector<double> xs, ys;
    for (std::size_t i = 0; i < opts.contention_ns.size(); ++i) {
      r.contention.per_n.add(opts.contention_ns[i], p.cont_slots[i]);
      xs.push_back(opts.contention_ns[i]);
      ys.push_back(p.cont_slots[i].median);
    }
    r.contention.fit = fit_linear(xs, ys);
  }
  {
    r.congestion.latency_vs_pairs.name = "p2p-pairs";
    for (std::size_t i = 0; i < p.pair_counts.size(); ++i) {
      r.congestion.latency_vs_pairs.add(p.pair_counts[i], p.cong_slots[i]);
    }
    if (r.congestion.latency_vs_pairs.size() >= 2) {
      const double first = r.congestion.latency_vs_pairs.ys.front().median;
      const double last = r.congestion.latency_vs_pairs.ys.back().median;
      r.congestion.ratio = first > 0 ? last / first : 1.0;
    }
  }
}

}  // namespace

// Each suite is planned as a list of independent experiment cells, every
// suite's cells join one batch on opts.jobs host threads, and each suite
// is reduced in planning order. All cell parameters (including seeds) are
// fixed at planning time, so the results are bit-identical for every jobs
// value, and identical to the historical serial loop.
std::vector<SuiteResults> run_suites(
    const std::vector<sim::MachineConfig>& cfgs, const SuiteOptions& opts) {
  std::vector<SuitePlan> plans(cfgs.size());  // never resized: jobs point in
  std::vector<std::function<void()>> jobs;
  exec::JobCosts cost;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    plans[i].r.cfg = cfgs[i];
    CAPMEM_LOG_INFO << "suite[" << sim::to_string(cfgs[i].cluster) << "/"
                    << sim::to_string(cfgs[i].memory) << "]: planning "
                    << (opts.jobs == 1 ? "serial" : "parallel") << " run";
    plan_suite(plans[i], opts, jobs, cost);
  }

  CAPMEM_LOG_INFO << "suite: running " << jobs.size() << " cells on "
                  << std::max(1, opts.jobs) << " worker(s)";
  exec::run_jobs(std::move(jobs), opts.jobs, cost);

  std::vector<SuiteResults> out;
  out.reserve(plans.size());
  for (SuitePlan& p : plans) {
    reduce_suite(p, opts);
    out.push_back(std::move(p.r));
  }
  return out;
}

SuiteResults run_suite(const sim::MachineConfig& cfg,
                       const SuiteOptions& opts) {
  return std::move(run_suites({cfg}, opts).front());
}

}  // namespace capmem::bench
