// Fault-tolerant batch execution on top of exec::run_jobs.
//
// A sweep of hundreds of simulated experiments must not lose everything to
// one pathological cell: run_jobs_recover runs a batch to completion,
// classifies each failure (common/check.hpp FailureClass), retries
// transient host failures with bounded exponential backoff — re-invoking
// the *same* job functor, so a job that derives its seed with
// exec::derive_seed reproduces its first attempt exactly — and quarantines
// deterministic failures instead of retrying what will fail again. The
// caller gets a BatchReport: per-job outcomes in submission order and a
// summary string that is byte-identical for any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "exec/pool.hpp"

namespace capmem::exec {

/// Terminal outcome of one job in a recovered batch.
enum class JobStatus : std::uint8_t {
  kOk,           ///< completed (possibly after transient retries)
  kFailed,       ///< transient failure persisted through every retry
  kTimedOut,     ///< watchdog-budget exhaustion (FailureClass::kTimeout)
  kQuarantined,  ///< deterministic failure: retrying cannot help
};

inline const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimedOut: return "timed-out";
    case JobStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

/// One non-Ok job of a recovered batch.
struct JobFailure {
  std::size_t job = 0;        ///< submission index
  JobStatus status = JobStatus::kFailed;
  FailureClass cls = FailureClass::kDeterministic;
  int attempts = 1;           ///< total attempts, including the first
  std::string error;          ///< what() of the final attempt's exception
  std::exception_ptr eptr;    ///< final attempt's exception, for rethrow
};

/// Outcome of run_jobs_recover. `failures` is in submission order; counts
/// partition the batch (ok + failed + timed_out + quarantined == jobs).
struct BatchReport {
  std::size_t jobs = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  std::size_t quarantined = 0;
  std::size_t retried = 0;  ///< jobs that needed more than one attempt
  /// Jobs whose retries stopped early because the per-job total-backoff
  /// wall-time cap (RetryPolicy::max_total_backoff_ms) ran out before
  /// max_attempts did. Always <= failed.
  std::size_t backoff_capped = 0;
  std::vector<JobFailure> failures;

  bool all_ok() const { return failures.empty(); }
  /// Deterministic multi-line summary (same text at any --jobs level):
  /// one header line plus one line per failure, newline-terminated.
  std::string summary() const;
};

/// Retry policy for transient host failures. Deterministic failures and
/// timeouts are never retried regardless of max_attempts.
struct RetryPolicy {
  int max_attempts = 3;        ///< total attempts per job (>= 1)
  double backoff_ms = 10.0;    ///< sleep before the first retry
  double backoff_factor = 4.0; ///< growth per subsequent retry
  double max_backoff_ms = 2000.0;
  /// Cap on the *total* backoff wall time one job may spend across all of
  /// its retries. Attempt count alone does not bound wall time (three
  /// attempts at max_backoff_ms each already cost seconds); a sweep of
  /// hundreds of jobs needs a per-job ceiling so one flapping cell cannot
  /// stall its worker indefinitely. When the next sleep would push the
  /// accumulated backoff past this cap the job stops retrying and reports
  /// as failed (BatchReport::backoff_capped counts these). <= 0: uncapped.
  double max_total_backoff_ms = 10000.0;
  bool sleep = true;           ///< false: skip the host sleep (tests)
};

/// Maps an exception to a FailureClass: unwraps ClassifiedFailure
/// implementers (sim::SimAbort), treats allocation / system-resource errors
/// as transient, and everything else — CheckError, logic errors, unknown
/// exceptions — as deterministic.
FailureClass default_failure_class(std::exception_ptr ep);

/// Terminal outcome of one retried call (see run_with_retry).
struct RetryOutcome {
  JobStatus status = JobStatus::kOk;
  FailureClass cls = FailureClass::kDeterministic;
  int attempts = 1;           ///< total attempts, including the first
  bool backoff_capped = false;///< retries stopped by max_total_backoff_ms
  std::exception_ptr eptr;    ///< final attempt's exception (null when ok)
};

/// Runs one callable under the retry/quarantine policy: transient failures
/// are retried with bounded exponential backoff until max_attempts or the
/// max_total_backoff_ms wall-time cap runs out; deterministic failures and
/// timeouts are never retried. Never throws — inspect the outcome. This is
/// the per-job engine of run_jobs_recover, exposed for callers (the serve
/// daemon) that retry single requests instead of batches.
RetryOutcome run_with_retry(const std::function<void()>& job,
                            const RetryPolicy& rp);

/// Runs `jobs` (same slot discipline and `cost` start-order hint as
/// run_jobs) with retry/quarantine recovery. Never throws on job failure —
/// inspect the report, which lists failures by submission index whatever
/// order they started in. With a process registry attached, adds
/// exec.jobs_ok / exec.jobs_failed / exec.jobs_timed_out /
/// exec.jobs_quarantined / exec.jobs_retried.
BatchReport run_jobs_recover(std::vector<std::function<void()>>&& jobs,
                             int nworkers, const RetryPolicy& rp = {},
                             const JobCosts& cost = {});

}  // namespace capmem::exec
