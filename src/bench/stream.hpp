// STREAM-style memory bandwidth benchmarks (paper §V.A, Table II, Fig. 9).
//
// Four kernels — copy (a[i]=b[i]), read (a=b[i]), write (b[i]=a), triad
// (a[i]=b[i]+s*c[i]) — with non-temporal variants, run by n threads under a
// pinning schedule. Two protocols:
//   * randomized (the paper's custom benchmark): every iteration each
//     thread picks a random buffer out of its pool; the median over
//     iterations is reported ("the expected performance");
//   * stream-peak (classic STREAM): fixed buffers, best iteration — the
//     tuned-peak columns of Table II.
// Reported GB/s follow the STREAM byte-count convention (copy 2n, triad 3n,
// read/write n).
#pragma once

#include <vector>

#include "bench/measurement.hpp"
#include "sim/config.hpp"
#include "sim/thread.hpp"

namespace capmem::bench {

enum class StreamOp { kCopy, kRead, kWrite, kTriad };
const char* to_string(StreamOp op);

/// STREAM-convention bytes moved per element-array byte.
double stream_bytes_factor(StreamOp op);

struct StreamConfig {
  RunOpts run{.iters = 11, .seed = 1};
  int nthreads = 16;
  sim::Schedule sched = sim::Schedule::kFillTiles;
  sim::MemKind kind = sim::MemKind::kDDR;  ///< ignored in cache mode
  bool nt = true;
  bool vector = true;
  std::uint64_t buffer_bytes = KiB(512);  ///< per stream array per thread
  int pool_buffers = 4;                   ///< randomized protocol pool size
  bool randomize = true;  ///< false = stream-peak protocol (fixed buffers)
};

struct StreamResult {
  Summary gbps;      ///< per-iteration aggregate GB/s (median = headline)
  double peak_gbps;  ///< best iteration (the STREAM-peak style number)
};

StreamResult stream_bench(const sim::MachineConfig& cfg, StreamOp op,
                          const StreamConfig& sc);

/// Start-order hint (exec::JobCosts) of one stream cell: the bytes all its
/// threads move over all iterations, which host time follows.
double stream_cost(StreamOp op, const StreamConfig& sc);

/// Thread-count sweeps (Fig. 9), one Series per entry of `curves` (its
/// nthreads is ignored); x = nthreads. Every (curve, thread count) point is
/// an isolated simulation, and all of them run as one batch on `jobs` host
/// threads (exec layer), the highest stream_cost first; results are
/// bit-identical for any jobs value.
std::vector<Series> stream_thread_sweep(const sim::MachineConfig& cfg,
                                        StreamOp op,
                                        const std::vector<StreamConfig>& curves,
                                        const std::vector<int>& thread_counts,
                                        int jobs = 1);

}  // namespace capmem::bench
