#include "exec/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <sstream>
#include <system_error>
#include <thread>

#include "exec/progress.hpp"
#include "obs/metrics.hpp"

namespace capmem::exec {

namespace {

std::string what_of(std::exception_ptr ep) {
  if (!ep) return "unknown failure";
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

}  // namespace

FailureClass default_failure_class(std::exception_ptr ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const ClassifiedFailure& c) {
    return c.failure_class();
  } catch (const std::bad_alloc&) {
    return FailureClass::kTransient;
  } catch (const std::system_error&) {
    return FailureClass::kTransient;
  } catch (...) {
    return FailureClass::kDeterministic;
  }
}

RetryOutcome run_with_retry(const std::function<void()>& job,
                            const RetryPolicy& rp) {
  CAPMEM_CHECK(rp.max_attempts >= 1);
  RetryOutcome out;
  double backoff = rp.backoff_ms;
  double total_backoff = 0;
  for (int attempt = 1;; ++attempt) {
    out.attempts = attempt;
    try {
      job();  // same functor every attempt: same derived seed
      out.status = JobStatus::kOk;
      out.eptr = nullptr;
      return out;
    } catch (...) {
      out.eptr = std::current_exception();
      out.cls = default_failure_class(out.eptr);
    }
    if (out.cls == FailureClass::kTransient && attempt < rp.max_attempts) {
      // The attempt budget bounds *how many* retries; the total-backoff
      // budget bounds *how long* they may take. A retry whose sleep would
      // overrun the wall-time cap is not taken: report failed + capped.
      const double sleep_ms = backoff > 0 ? backoff : 0;
      if (rp.max_total_backoff_ms > 0 &&
          total_backoff + sleep_ms > rp.max_total_backoff_ms) {
        out.backoff_capped = true;
        out.status = JobStatus::kFailed;
        return out;
      }
      total_backoff += sleep_ms;
      if (rp.sleep && sleep_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
      backoff = std::min(backoff * rp.backoff_factor, rp.max_backoff_ms);
      continue;
    }
    switch (out.cls) {
      case FailureClass::kDeterministic:
        out.status = JobStatus::kQuarantined;
        break;
      case FailureClass::kTimeout:
        out.status = JobStatus::kTimedOut;
        break;
      case FailureClass::kTransient:
        out.status = JobStatus::kFailed;
        break;
    }
    return out;  // recorded, not rethrown: sibling work keeps running
  }
}

std::string BatchReport::summary() const {
  std::ostringstream os;
  os << "exec: " << jobs << " job(s) — " << ok << " ok, " << failed
     << " failed, " << timed_out << " timed out, " << quarantined
     << " quarantined, " << retried << " retried";
  if (backoff_capped > 0) os << ", " << backoff_capped << " backoff-capped";
  os << '\n';
  for (const JobFailure& f : failures) {
    os << "  job " << f.job << ' ' << to_string(f.status) << " after "
       << f.attempts << " attempt(s) [" << to_string(f.cls)
       << "]: " << f.error << '\n';
  }
  return os.str();
}

BatchReport run_jobs_recover(std::vector<std::function<void()>>&& jobs,
                             int nworkers, const RetryPolicy& rp,
                             const JobCosts& cost) {
  const std::size_t njobs = jobs.size();
  CAPMEM_CHECK(rp.max_attempts >= 1);

  // Per-job outcome slots, exclusive to each wrapper (same slot discipline
  // run_jobs gives its callers).
  std::vector<RetryOutcome> slots(njobs);

  std::vector<std::function<void()>> wrapped;
  wrapped.reserve(njobs);
  for (std::size_t i = 0; i < njobs; ++i) {
    RetryOutcome* slot = &slots[i];
    wrapped.push_back([job = std::move(jobs[i]), slot, &rp] {
      *slot = run_with_retry(job, rp);
    });
  }
  run_jobs(std::move(wrapped), nworkers, cost);  // wrappers never throw

  BatchReport rep;
  rep.jobs = njobs;
  for (std::size_t i = 0; i < njobs; ++i) {
    const RetryOutcome& s = slots[i];
    if (s.attempts > 1) ++rep.retried;
    if (s.backoff_capped) ++rep.backoff_capped;
    if (s.status == JobStatus::kOk) {
      ++rep.ok;
      continue;
    }
    switch (s.status) {
      case JobStatus::kFailed: ++rep.failed; break;
      case JobStatus::kTimedOut: ++rep.timed_out; break;
      case JobStatus::kQuarantined: ++rep.quarantined; break;
      case JobStatus::kOk: break;
    }
    JobFailure f;
    f.job = i;
    f.status = s.status;
    f.cls = s.cls;
    f.attempts = s.attempts;
    f.eptr = s.eptr;
    f.error = what_of(s.eptr);
    rep.failures.push_back(std::move(f));
  }

  if (ProgressMeter* pm = progress_meter()) {
    pm->note_quarantined(rep.quarantined);
  }
  if (obs::Registry* reg = obs::process_registry()) {
    reg->add("exec.jobs_ok", static_cast<double>(rep.ok));
    reg->add("exec.jobs_failed", static_cast<double>(rep.failed));
    reg->add("exec.jobs_timed_out", static_cast<double>(rep.timed_out));
    reg->add("exec.jobs_quarantined", static_cast<double>(rep.quarantined));
    reg->add("exec.jobs_retried", static_cast<double>(rep.retried));
    reg->add("exec.jobs_backoff_capped",
             static_cast<double>(rep.backoff_capped));
  }
  return rep;
}

}  // namespace capmem::exec
