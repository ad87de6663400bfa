// Full measurement suite for one machine configuration: everything the
// capability-model fit needs, i.e. the contents of the paper's Tables I
// and II for that configuration.
#pragma once

#include <optional>

#include "bench/c2c.hpp"
#include "common/linreg.hpp"
#include "bench/congestion.hpp"
#include "bench/contention.hpp"
#include "bench/multiline.hpp"
#include "bench/pointer_chase.hpp"
#include "bench/stream.hpp"
#include "sim/config.hpp"

namespace capmem::bench {

struct SuiteOptions {
  RunOpts run{.iters = 51, .seed = 1};
  /// Victim tiles sampled for the remote-latency ranges.
  int remote_samples = 5;
  /// Contention sweep points.
  std::vector<int> contention_ns{1, 2, 4, 8, 16, 24};
  /// Fast mode shrinks the stream experiments (fewer threads/iterations);
  /// used by tests and quick example runs.
  bool fast = false;
  /// Skip the (expensive) stream kernels — enough for fitting the
  /// cache-to-cache half of the model (collective tuning).
  bool streams = true;
  /// Host worker threads for the suite's experiment cells (exec::Pool).
  /// Every cell is an isolated simulation, so results are bit-identical
  /// for any value; 1 = serial reference path, 0 = hardware concurrency.
  int jobs = 1;
};

/// min/max of medians across sampled victims — the paper's "107-122"-style
/// range cells.
struct Range {
  double lo = 0;
  double hi = 0;
};

struct SuiteResults {
  sim::MachineConfig cfg;

  // --- Table I: cache-to-cache ---
  Summary lat_l1;
  Summary lat_tile_m, lat_tile_e, lat_tile_sf;
  Summary lat_remote_m, lat_remote_e, lat_remote_sf;  // pooled samples
  Range range_remote_m, range_remote_e, range_remote_sf;
  Summary bw_read_remote;     // GB/s, single thread, vector
  Summary bw_copy_tile_m, bw_copy_tile_e;
  Summary bw_copy_remote;
  /// Multi-line remote copy law: time(ns) = alpha + beta * lines
  /// (paper §IV.A.4: "we fit a linear regression model (alpha + beta*N)").
  LinearFit multiline_ns;
  ContentionResult contention;
  CongestionResult congestion;

  // --- Table II: memory ---
  Summary mem_lat_dram;                    // cache mode: the single latency
  std::optional<Summary> mem_lat_mcdram;   // absent in cache mode
  struct StreamCell {
    StreamResult nt_random;   // the paper's custom benchmark (NT, random)
    StreamResult stream_peak; // classic STREAM protocol
  };
  // Indexed [op][kind]; kind 0 = DRAM (or the only kind in cache mode),
  // kind 1 = MCDRAM (flat modes only).
  StreamCell stream[4][2];
  /// Single-thread copy bandwidth per kind (the sort model's per-thread
  /// achievable-bandwidth anchor).
  StreamResult copy_1thread[2];
  bool has_mcdram_streams = false;
  bool has_streams = false;
};

SuiteResults run_suite(const sim::MachineConfig& cfg,
                       const SuiteOptions& opts = {});

/// One suite per config, with every suite's cells in one batch on
/// opts.jobs host threads (the longest cells first), so a short suite does
/// not wait for a long one. Results in config order, each identical to
/// run_suite(cfgs[i], opts).
std::vector<SuiteResults> run_suites(
    const std::vector<sim::MachineConfig>& cfgs, const SuiteOptions& opts);

}  // namespace capmem::bench
