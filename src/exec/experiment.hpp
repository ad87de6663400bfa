// Experiment: the one seam between "what to measure" and "how to run it".
//
// An Experiment is a grid of configuration cells times repeated trials.
// Every (config, trial) pair runs as one isolated job — each builds its own
// sim::Machine, so jobs share nothing — with a seed derived purely from
// (base_seed, config_id, trial). Results land in a pre-sized slot array
// (one slot per job, no mutex on the result path) and are reduced per
// config in trial order, so the output is bit-identical for any worker
// count, and identical to running the grid serially in submission order.
// An optional per-config cost hint decides only which jobs start first
// (longest first, so a big cell does not start last and run alone).
//
// The harness loops in bench::run_suites, coll::run_collective_sweep and
// sort::run_sorts are all instances of this shape; future fault injection
// or remote dispatch plugs in here without touching the harnesses.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "exec/pool.hpp"
#include "exec/recovery.hpp"
#include "exec/seed.hpp"
#include "obs/metrics.hpp"

namespace capmem::exec {

/// Identity of one job within an experiment grid, plus its derived seed.
struct Trial {
  int config_id = 0;        ///< index into Experiment::configs
  int index = 0;            ///< repetition index within the config
  std::uint64_t seed = 0;   ///< derive_seed(base_seed, config_id, index)
};

template <typename Config, typename Result>
struct Experiment {
  /// One entry per grid cell; each cell runs `trials` isolated programs.
  std::vector<Config> configs;
  int trials = 1;
  std::uint64_t base_seed = 1;
  /// Program factory: builds and runs one isolated trial (its own Machine,
  /// its own buffers) and returns its result. Must not touch shared mutable
  /// state — determinism and thread-safety both depend on it.
  std::function<Result(const Config&, const Trial&)> program;
  /// Reduces one config's trial results (in trial order) to the config's
  /// result. Unset: the sole trial's result is returned (requires trials
  /// == 1).
  std::function<Result(const Config&, std::vector<Result>&&)> reduce;
  /// Start-order hint per config (see exec::JobCosts): every trial of a
  /// costlier config starts before those of a cheaper one. A pure function
  /// of the config; unset: submission order. Never changes a result.
  std::function<double(const Config&)> cost;
};

/// Runs the experiment grid on `nworkers` host threads (<= 1: inline,
/// serially, in submission order). Returns one reduced Result per config,
/// in config order.
template <typename Config, typename Result>
std::vector<Result> run_experiment(const Experiment<Config, Result>& e,
                                   int nworkers) {
  CAPMEM_CHECK(e.trials >= 1);
  CAPMEM_CHECK_MSG(e.reduce != nullptr || e.trials == 1,
                   "multi-trial experiments need a reducer");
  CAPMEM_CHECK(e.program != nullptr);
  const std::size_t ncfg = e.configs.size();
  const std::size_t ntrials = static_cast<std::size_t>(e.trials);
  if (obs::Registry* reg = obs::process_registry()) {
    reg->add("exec.experiments", 1);
    reg->add("exec.cells", static_cast<double>(ncfg));
    reg->add("exec.trials", static_cast<double>(ncfg * ntrials));
  }
  std::vector<Result> slots(ncfg * ntrials);  // one exclusive slot per job
  std::vector<std::function<void()>> jobs;
  jobs.reserve(ncfg * ntrials);
  JobCosts cost;
  for (std::size_t c = 0; c < ncfg; ++c) {
    if (e.cost != nullptr) {
      cost.insert(cost.end(), ntrials, e.cost(e.configs[c]));
    }
    for (std::size_t t = 0; t < ntrials; ++t) {
      Trial trial{static_cast<int>(c), static_cast<int>(t),
                  derive_seed(e.base_seed, c, t)};
      Result* slot = &slots[c * ntrials + t];
      jobs.push_back([&e, c, trial, slot] {
        *slot = e.program(e.configs[c], trial);
      });
    }
  }
  run_jobs(std::move(jobs), nworkers, cost);

  std::vector<Result> out;
  out.reserve(ncfg);
  for (std::size_t c = 0; c < ncfg; ++c) {
    if (e.reduce == nullptr) {
      out.push_back(std::move(slots[c]));
      continue;
    }
    std::vector<Result> per_trial(
        std::make_move_iterator(slots.begin() +
                                static_cast<std::ptrdiff_t>(c * ntrials)),
        std::make_move_iterator(slots.begin() +
                                static_cast<std::ptrdiff_t>((c + 1) *
                                                            ntrials)));
    out.push_back(e.reduce(e.configs[c], std::move(per_trial)));
  }
  return out;
}

/// Index-parallel map: runs `fn(i)` for i in [0, n) and returns the results
/// in index order. The degenerate one-trial Experiment, for harness loops
/// whose cells are already fully described by their index; `cost` (empty,
/// or one hint per index) orders only when each index starts.
template <typename Result, typename Fn>
std::vector<Result> parallel_map(int n, int nworkers, Fn&& fn,
                                 const JobCosts& cost = {}) {
  CAPMEM_CHECK(n >= 0);
  std::vector<Result> slots(static_cast<std::size_t>(n));
  std::vector<std::function<void()>> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Result* slot = &slots[static_cast<std::size_t>(i)];
    jobs.push_back([&fn, i, slot] { *slot = fn(i); });
  }
  run_jobs(std::move(jobs), nworkers, cost);
  return slots;
}

/// Fault-tolerant parallel_map: like parallel_map, but a failing index
/// never takes the batch down. Slots of non-Ok jobs keep their
/// default-constructed value; the BatchReport says which (by index, ==
/// submission order) and why.
template <typename Result, typename Fn>
std::pair<std::vector<Result>, BatchReport> try_parallel_map(
    int n, int nworkers, Fn&& fn, const RecoveryOptions& opts = {},
    const JobCosts& cost = {}) {
  CAPMEM_CHECK(n >= 0);
  std::vector<Result> slots(static_cast<std::size_t>(n));
  std::vector<std::function<void()>> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Result* slot = &slots[static_cast<std::size_t>(i)];
    jobs.push_back([&fn, i, slot] { *slot = fn(i); });
  }
  BatchReport rep = run_jobs_recover(std::move(jobs), nworkers, opts, cost);
  return {std::move(slots), std::move(rep)};
}

}  // namespace capmem::exec
