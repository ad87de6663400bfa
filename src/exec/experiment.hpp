// Index-parallel maps: the harnesses' way to run a batch of isolated cells.
//
// A harness numbers its cells 0..n-1 and describes each one by its index —
// a suite cell, a collective sweep point, a sort run — and derives any seed
// purely from the index with exec::derive_seed. Every cell builds its own
// sim::Machine, so cells share nothing. Results land in a pre-sized slot
// array (one slot per cell, no mutex on the result path) returned in index
// order, so the output is bit-identical for any worker count, and identical
// to running the cells serially in index order. An optional per-cell cost
// hint decides only which cells start first (longest first, so a big cell
// does not start last and run alone).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "exec/pool.hpp"
#include "exec/recovery.hpp"
#include "exec/seed.hpp"

namespace capmem::exec {

namespace detail {

/// One job per index, each writing `fn(i)` into its own pre-sized slot.
template <typename Result, typename Fn>
std::vector<std::function<void()>> index_jobs(int n, Fn& fn,
                                              std::vector<Result>& slots) {
  CAPMEM_CHECK(n >= 0);
  slots.resize(static_cast<std::size_t>(n));
  std::vector<std::function<void()>> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Result* slot = &slots[static_cast<std::size_t>(i)];
    jobs.push_back([&fn, i, slot] { *slot = fn(i); });
  }
  return jobs;
}

}  // namespace detail

/// Index-parallel map: runs `fn(i)` for i in [0, n) on `nworkers` host
/// threads (see run_jobs) and returns the results in index order. `cost`
/// (empty, or one hint per index) orders only when each index starts.
template <typename Result, typename Fn>
std::vector<Result> parallel_map(int n, int nworkers, Fn&& fn,
                                 const JobCosts& cost = {}) {
  std::vector<Result> slots;
  run_jobs(detail::index_jobs(n, fn, slots), nworkers, cost);
  return slots;
}

/// Fault-tolerant parallel_map: like parallel_map, but a failing index
/// never takes the batch down. Slots of non-Ok jobs keep their
/// default-constructed value; the BatchReport says which (by index, ==
/// submission order) and why.
template <typename Result, typename Fn>
std::pair<std::vector<Result>, BatchReport> try_parallel_map(
    int n, int nworkers, Fn&& fn, const RetryPolicy& rp = {},
    const JobCosts& cost = {}) {
  std::vector<Result> slots;
  BatchReport rep =
      run_jobs_recover(detail::index_jobs(n, fn, slots), nworkers, rp, cost);
  return {std::move(slots), std::move(rep)};
}

}  // namespace capmem::exec
