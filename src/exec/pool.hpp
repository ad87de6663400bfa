// Fixed-size worker-thread pool for parallel experiment execution.
//
// The simulator is single-threaded by design (one Engine per Machine), but
// every experiment — a suite cell, a collective run, a sort trial — builds
// its own isolated Machine, so experiments are embarrassingly parallel
// across *host* threads. Pool is the one place in the codebase that spawns
// host threads; everything above it stays deterministic by (a) deriving
// seeds with exec::derive_seed instead of reading run order, and (b)
// writing results into pre-sized per-job slots merged in submission order.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <thread>
#include <vector>

namespace capmem::exec {

class Pool {
 public:
  /// Spawns `nworkers` (>= 1) host threads. Cli::get_jobs resolves
  /// `--jobs 0` to the host's thread count before a Pool sees it.
  explicit Pool(int nworkers);
  /// Joins all workers. Pending jobs are finished first.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueues `fn` and returns a future that becomes ready when it has run
  /// (or rethrows what it threw).
  std::future<void> submit(std::function<void()> fn);

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::packaged_task<void()>> queue_;  // FIFO via head index
  std::size_t head_ = 0;
  bool stop_ = false;
};

/// Per-job start-order hint of a batch: one finite value per job (larger =
/// expected to run longer), or empty for submission order. Harnesses derive
/// it from the job's config (threads, threads x bytes per thread), never
/// from a measured time, so it cannot depend on the host.
using JobCosts = std::vector<double>;

/// The order in which a batch's jobs start on a Pool: submission indices
/// stably sorted by descending cost, ties kept in submission order
/// (longest-processing-time-first list scheduling, Graham 1969). Empty
/// `cost`: 0..njobs-1.
std::vector<std::size_t> dispatch_order(const JobCosts& cost,
                                        std::size_t njobs);

/// Runs every job in `jobs`. With `nworkers` <= 1, or fewer than two
/// jobs, the jobs run inline on the calling thread, in submission order —
/// the serial reference path; otherwise they start on a Pool of
/// min(nworkers, jobs) threads in dispatch_order(cost). Dispatch order is
/// not result order: all jobs run even when some throw, and then the first
/// failure by submission index is rethrown. Results are whatever the jobs
/// wrote into their own slots — callers give each job exclusive storage and
/// merge in deterministic order, so the hint changes wall time only.
///
/// When an obs::Registry is installed as the process registry (obs::Session
/// with --metrics-out), every job is additionally wrapped with host
/// wall-time profiling: exec.job_wall_us / exec.job_queue_wait_us /
/// exec.batch_wall_us histograms and an exec.worker_util estimate. A job's
/// queue wait runs from when its thread became free (its previous job of
/// the batch ended, or the batch started) to the job's start. Host times
/// are nondeterministic; they appear only in the metrics output and never
/// influence job results.
void run_jobs(std::vector<std::function<void()>>&& jobs, int nworkers,
              const JobCosts& cost = {});

}  // namespace capmem::exec
