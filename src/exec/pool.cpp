#include "exec/pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>

#include "common/check.hpp"
#include "exec/progress.hpp"
#include "obs/metrics.hpp"

namespace capmem::exec {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

// When this thread's last profiled job ended, on a pool worker or on the
// inline (nworkers <= 1) caller; exec.job_queue_wait_us counts from there.
thread_local Clock::time_point t_last_job_end;

// One failed job: its submission index plus the exception it threw.
struct JobError {
  std::size_t job = 0;
  std::exception_ptr error;
};

// The unobserved dispatch path. Every job runs (a throw never skips later
// jobs' slots); failures come back by submission index, already ordered.
std::vector<JobError> collect_raw(std::vector<std::function<void()>>&& jobs,
                                  int nworkers, const JobCosts& cost) {
  // Validated on both paths, so a malformed hint fails at any --jobs.
  const std::vector<std::size_t> order = dispatch_order(cost, jobs.size());
  std::vector<JobError> errors;
  if (nworkers <= 1 || jobs.size() < 2) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      try {
        jobs[i]();
      } catch (...) {
        errors.push_back(JobError{i, std::current_exception()});
      }
    }
    return errors;
  }
  Pool pool(std::min<int>(nworkers, static_cast<int>(jobs.size())));
  std::vector<std::future<void>> futs(jobs.size());
  for (std::size_t i : order) futs[i] = pool.submit(std::move(jobs[i]));
  // Wait for everything before returning so no job still references the
  // caller's slots when run_jobs returns.
  for (std::size_t i = 0; i < futs.size(); ++i) {
    try {
      futs[i].get();
    } catch (...) {
      errors.push_back(JobError{i, std::current_exception()});
    }
  }
  return errors;
}

// Wraps every job with host wall-time profiling recorded into the process
// registry (installed by obs::Session for --metrics-out). Host times are
// nondeterministic by nature; they only ever land in the metrics JSON,
// never in experiment results or stdout.
std::vector<JobError> run_jobs_profiled(
    std::vector<std::function<void()>>&& jobs, int nworkers,
    const JobCosts& cost, obs::Registry& reg) {
  const std::size_t njobs = jobs.size();
  const Clock::time_point batch_start = Clock::now();
  std::vector<std::function<void()>> wrapped;
  wrapped.reserve(njobs);
  for (auto& j : jobs) {
    wrapped.push_back(
        [job = std::move(j), batch_start, &reg] {
          // Time this job waited for a free thread: from when its thread
          // became free (its previous job of this batch ended, or the
          // batch started) to now. Earlier jobs on the same thread are not
          // waiting time.
          const double queue_us =
              us_since(std::max(t_last_job_end, batch_start));
          const Clock::time_point t0 = Clock::now();
          struct MarkEnd {
            ~MarkEnd() { t_last_job_end = Clock::now(); }
          } mark_end;  // also when the job throws
          job();
          reg.record("exec.job_wall_us", us_since(t0));
          reg.record("exec.job_queue_wait_us", queue_us);
        });
  }
  reg.add("exec.batches", 1);
  reg.add("exec.jobs", static_cast<double>(njobs));
  reg.set("exec.workers", static_cast<double>(std::max(1, nworkers)));
  const double wall_sum_before = reg.hist("exec.job_wall_us").sum;
  std::vector<JobError> errors =
      collect_raw(std::move(wrapped), nworkers, cost);
  const double batch_us = us_since(batch_start);
  reg.record("exec.batch_wall_us", batch_us);
  // Worker utilization of this batch: summed job wall time over the
  // worker-seconds the batch occupied (1.0 = perfectly packed).
  const double batch_wall_sum =
      reg.hist("exec.job_wall_us").sum - wall_sum_before;
  const double denom =
      batch_us *
      std::max(1, std::min(nworkers, static_cast<int>(njobs)));
  if (denom > 0) reg.record("exec.worker_util", batch_wall_sum / denom);
  return errors;
}

}  // namespace

Pool::Pool(int nworkers) {
  CAPMEM_CHECK_MSG(nworkers >= 1, "Pool of " << nworkers << " workers");
  workers_.reserve(static_cast<std::size_t>(nworkers));
  for (int i = 0; i < nworkers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::future<void> Pool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

std::vector<std::size_t> dispatch_order(const JobCosts& cost,
                                        std::size_t njobs) {
  CAPMEM_CHECK_MSG(cost.empty() || cost.size() == njobs,
                   cost.size() << " cost hints for " << njobs << " jobs");
  std::vector<std::size_t> order(njobs);
  for (std::size_t i = 0; i < njobs; ++i) order[i] = i;
  if (cost.empty()) return order;
  for (double c : cost) {
    CAPMEM_CHECK_MSG(std::isfinite(c), "non-finite job cost hint " << c);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&cost](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  return order;
}

void Pool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || head_ < queue_.size(); });
      if (head_ >= queue_.size()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_[head_++]);
      // Drop the drained prefix occasionally so long-lived pools don't
      // accumulate dead tasks.
      if (head_ > 64 && head_ * 2 > queue_.size()) {
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    task();  // exceptions land in the task's future
  }
}

void run_jobs(std::vector<std::function<void()>>&& jobs, int nworkers,
              const JobCosts& cost) {
  if (ProgressMeter* pm = progress_meter()) {
    // The meter ticks when a job leaves its slot — including on a throw, so
    // the heartbeat never undercounts a failing sweep.
    pm->add_total(jobs.size());
    for (auto& j : jobs) {
      j = [job = std::move(j), pm] {
        struct Tick {
          ProgressMeter* p;
          ~Tick() { p->tick(); }
        } tick{pm};
        job();
      };
    }
  }
  obs::Registry* reg = obs::process_registry();
  const std::vector<JobError> errors =
      reg == nullptr ? collect_raw(std::move(jobs), nworkers, cost)
                     : run_jobs_profiled(std::move(jobs), nworkers, cost,
                                         *reg);
  if (!errors.empty()) std::rethrow_exception(errors.front().error);
}

}  // namespace capmem::exec
