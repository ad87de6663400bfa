// Tests of the parallel experiment-execution layer: the worker pool, the
// deterministic seed derivation, the parallel maps, and the contract
// the whole layer exists for — suite results that are bit-identical no
// matter how many host workers execute the cells.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/suite.hpp"
#include "coll/harness.hpp"
#include "exec/experiment.hpp"
#include "exec/pool.hpp"
#include "exec/recovery.hpp"
#include "exec/seed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace capmem::exec {
namespace {

TEST(Seed, DerivationIsStable) {
  // Pure function of its inputs — same value on every call.
  for (std::uint64_t base : {0ull, 1ull, 99ull, 0xdeadbeefull}) {
    EXPECT_EQ(derive_seed(base, 3, 7), derive_seed(base, 3, 7));
  }
  // And sensitive to every component.
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(1, 1, 0));
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(1, 0, 1));
}

TEST(Seed, NoCollisionsAcrossConfigTrialGrid) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t c = 0; c < 64; ++c) {
    for (std::uint64_t t = 0; t < 64; ++t) {
      EXPECT_TRUE(seen.insert(derive_seed(1, c, t)).second)
          << "collision at config " << c << " trial " << t;
    }
  }
  // Swapping config and trial must not alias either.
  EXPECT_NE(derive_seed(1, 2, 5), derive_seed(1, 5, 2));
}

TEST(Pool, RunsSubmittedWork) {
  Pool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(Pool, PropagatesExceptions) {
  Pool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Pool, RequiresAtLeastOneWorker) {
  EXPECT_THROW(Pool(0), CheckError);
  EXPECT_THROW(Pool(-1), CheckError);
}

TEST(RunJobs, ExecutesAllJobsSerialAndParallel) {
  for (int workers : {1, 8}) {
    std::vector<int> done(64, 0);
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i) {
      jobs.push_back([&done, i] { done[static_cast<std::size_t>(i)] = i + 1; });
    }
    run_jobs(std::move(jobs), workers);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(done[static_cast<std::size_t>(i)], i + 1);
    }
  }
}

TEST(RunJobs, RethrowsFirstExceptionBySubmissionOrder) {
  for (int workers : {1, 4}) {
    std::vector<std::function<void()>> jobs;
    jobs.push_back([] {});
    jobs.push_back([] { throw std::runtime_error("first"); });
    jobs.push_back([] { throw std::logic_error("second"); });
    try {
      run_jobs(std::move(jobs), workers);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first");
    }
  }
}

TEST(RunJobs, BatchesOfFewerThanTwoJobsRunOnTheCaller) {
  // An empty batch starts no pool, and a one-job batch has nothing to run
  // beside it: both stay on the calling thread at any worker count.
  run_jobs({}, 4);
  std::thread::id ran_on;
  std::vector<std::function<void()>> one;
  one.push_back([&ran_on] { ran_on = std::this_thread::get_id(); });
  run_jobs(std::move(one), 4);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(parallel_map<int>(0, 4, [](int i) { return i; }).empty());
}

TEST(RunJobsRecover, ReportsEveryFailureInSubmissionOrder) {
  for (int workers : {1, 4}) {
    std::vector<int> done(4, 0);
    std::vector<std::function<void()>> jobs;
    jobs.push_back([&done] { done[0] = 1; });
    jobs.push_back([] { throw std::runtime_error("first"); });
    jobs.push_back([&done] { done[2] = 1; });
    jobs.push_back([] { throw std::logic_error("second"); });
    RetryPolicy rp;
    rp.sleep = false;
    const BatchReport rep = run_jobs_recover(std::move(jobs), workers, rp);
    // Every job ran — a throwing job never stops its siblings, even on the
    // serial path.
    EXPECT_EQ(done[0], 1);
    EXPECT_EQ(done[2], 1);
    ASSERT_EQ(rep.failures.size(), 2u);
    EXPECT_EQ(rep.failures[0].job, 1u);
    EXPECT_EQ(rep.failures[1].job, 3u);
    EXPECT_THROW(std::rethrow_exception(rep.failures[0].eptr),
                 std::runtime_error);
    EXPECT_THROW(std::rethrow_exception(rep.failures[1].eptr),
                 std::logic_error);
  }
}

TEST(RunJobsRecover, SiblingJobsSurviveADeadlockedSimulation) {
  // Regression for the --jobs N hazard: one simulation deadlocking used to
  // tear down the whole batch. Under recovery the deadlock is quarantined
  // (deterministic — same seed deadlocks again) and every sibling completes.
  for (int workers : {1, 4}) {
    std::vector<int> done(6, 0);
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 6; ++i) {
      if (i == 2) {
        jobs.push_back([] {
          sim::Engine e(1);
          auto waiter = [&]() -> sim::Task {
            struct ParkForever {
              sim::Engine* e;
              bool await_ready() const noexcept { return false; }
              void await_suspend(sim::Task::Handle h) const {
                e->park(9, h, [](Nanos) { return false; });
              }
              void await_resume() const noexcept {}
            };
            co_await ParkForever{&e};
          };
          e.spawn(waiter());
          e.run();  // throws sim::SimAbort (deadlock)
        });
      } else {
        jobs.push_back([&done, i] { done[static_cast<std::size_t>(i)] = 1; });
      }
    }
    RetryPolicy rp;
    rp.sleep = false;
    const BatchReport rep = run_jobs_recover(std::move(jobs), workers, rp);
    for (int i = 0; i < 6; ++i) {
      if (i != 2) {
        EXPECT_EQ(done[static_cast<std::size_t>(i)], 1) << i;
      }
    }
    EXPECT_EQ(rep.jobs, 6u);
    EXPECT_EQ(rep.ok, 5u);
    EXPECT_EQ(rep.quarantined, 1u);
    EXPECT_EQ(rep.retried, 0u);  // deterministic: retry would not help
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].job, 2u);
    EXPECT_EQ(rep.failures[0].status, JobStatus::kQuarantined);
    EXPECT_EQ(rep.failures[0].cls, FailureClass::kDeterministic);
    EXPECT_EQ(rep.failures[0].attempts, 1);
    EXPECT_NE(rep.failures[0].error.find("deadlock"), std::string::npos);
  }
}

TEST(RunJobsRecover, RetryReinvokesTheSameJobWithTheSameSeed) {
  // A transiently-failing job is re-invoked as the *same* functor: a job
  // deriving its seed via derive_seed sees the identical seed on retry.
  std::vector<std::uint64_t> seeds_seen;
  int attempts = 0;
  std::vector<std::function<void()>> jobs;
  jobs.push_back([&seeds_seen, &attempts] {
    seeds_seen.push_back(derive_seed(7, 2, 5));
    if (++attempts == 1) {
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again),
          "flaky host");
    }
  });
  RetryPolicy rp;
  rp.sleep = false;
  const BatchReport rep = run_jobs_recover(std::move(jobs), 1, rp);
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.ok, 1u);
  EXPECT_EQ(rep.retried, 1u);
  ASSERT_EQ(seeds_seen.size(), 2u);
  EXPECT_EQ(seeds_seen[0], derive_seed(7, 2, 5));
  EXPECT_EQ(seeds_seen[0], seeds_seen[1]);
}

TEST(RunJobsRecover, SummaryIsByteIdenticalAcrossWorkerCounts) {
  // One quarantine, one persistent transient failure, one timeout, five ok:
  // the report (counts, order, text) must not depend on --jobs.
  const auto run_batch = [](int workers) {
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 8; ++i) {
      if (i == 2) {
        jobs.push_back([] { throw std::logic_error("bad cell"); });
      } else if (i == 5) {
        jobs.push_back([] {
          throw std::system_error(
              std::make_error_code(
                  std::errc::resource_unavailable_try_again),
              "always flaky");
        });
      } else if (i == 6) {
        jobs.push_back([] {
          throw sim::SimAbort(sim::AbortKind::kLivelock,
                              "step budget 10 exceeded", 1.0, 11, 0, 1.0);
        });
      } else {
        jobs.push_back([] {});
      }
    }
    RetryPolicy rp;
    rp.sleep = false;
    return run_jobs_recover(std::move(jobs), workers, rp);
  };
  const BatchReport serial = run_batch(1);
  const BatchReport parallel = run_batch(8);
  EXPECT_EQ(serial.summary(), parallel.summary());
  EXPECT_EQ(serial.jobs, 8u);
  EXPECT_EQ(serial.ok, 5u);
  EXPECT_EQ(serial.quarantined, 1u);
  EXPECT_EQ(serial.failed, 1u);
  EXPECT_EQ(serial.timed_out, 1u);
  EXPECT_EQ(serial.retried, 1u);  // only the transient job retried
  ASSERT_EQ(serial.failures.size(), 3u);
  EXPECT_EQ(serial.failures[0].job, 2u);
  EXPECT_EQ(serial.failures[1].job, 5u);
  EXPECT_EQ(serial.failures[1].attempts, 3);  // default max_attempts
  EXPECT_EQ(serial.failures[2].job, 6u);
  EXPECT_EQ(serial.failures[2].status, JobStatus::kTimedOut);
}

TEST(TryParallelMap, DeliversResultsAndReportTogether) {
  const auto [results, rep] = try_parallel_map<int>(
      10, 4, [](int i) {
        if (i == 3) throw std::logic_error("cell 3 is cursed");
        return i * i;
      });
  EXPECT_EQ(rep.ok, 9u);
  EXPECT_EQ(rep.quarantined, 1u);
  ASSERT_EQ(results.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ParallelMap, PreservesIndexOrder) {
  const auto serial = parallel_map<int>(33, 1, [](int i) { return i * i; });
  const auto parallel = parallel_map<int>(33, 8, [](int i) { return i * i; });
  EXPECT_EQ(serial, parallel);
  for (int i = 0; i < 33; ++i) {
    EXPECT_EQ(serial[static_cast<std::size_t>(i)], i * i);
  }
}

// --- Cost-hinted dispatch ----------------------------------------------------

TEST(DispatchOrder, IsAStableDescendingSort) {
  EXPECT_EQ(dispatch_order({}, 4),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  // Descending cost; the three ties at 3 and the two at 0 keep submission
  // order.
  EXPECT_EQ(dispatch_order({1, 3, 3, 0, 2, 3, 0}, 7),
            (std::vector<std::size_t>{1, 2, 5, 4, 0, 3, 6}));
  EXPECT_EQ(dispatch_order({5, 5, 5}, 3),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_THROW(dispatch_order({1, 2}, 3), CheckError);
  EXPECT_THROW(dispatch_order({1, std::nan(""), 2}, 3), CheckError);
  // A malformed hint fails on the serial path too, before any job runs.
  int ran = 0;
  std::vector<std::function<void()>> jobs(3, [&ran] { ++ran; });
  EXPECT_THROW(run_jobs(std::move(jobs), 1, {1, 2}), CheckError);
  EXPECT_EQ(ran, 0);
}

// --- Host profile -------------------------------------------------------------

TEST(Profile, InlineJobsDoNotWaitBehindEachOther) {
  // exec.job_queue_wait_us runs from when the job's thread became free, so
  // the 20th of 20 inline 5 ms jobs waited ~0, not ~95 ms of its
  // predecessors' run time.
  obs::Registry reg;
  obs::set_process_registry(&reg);
  std::vector<std::function<void()>> jobs(20, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  run_jobs(std::move(jobs), 1);
  obs::set_process_registry(nullptr);
  const obs::Log2Hist wait = reg.hist("exec.job_queue_wait_us");
  EXPECT_EQ(wait.count, 20u);
  EXPECT_LT(wait.max, 5000.0);
  EXPECT_GE(reg.hist("exec.job_wall_us").min, 5000.0);
}

// Costs that reverse most of a batch, with ties.
JobCosts reversing_costs(int n) {
  JobCosts cost;
  for (int i = 0; i < n; ++i) cost.push_back(static_cast<double>(i / 3));
  return cost;
}

TEST(HintedBatch, SlotsMatchAtEveryWorkerCountAndTheUnhintedBatch) {
  constexpr int kN = 41;
  const auto fn = [](int i) {
    std::uint64_t h = derive_seed(7, static_cast<std::uint64_t>(i), 0);
    for (int k = 0; k < 200 * (i % 5); ++k) h = derive_seed(h, 1, 1);
    return h;
  };
  const auto unhinted = parallel_map<std::uint64_t>(kN, 1, fn);
  for (int workers : {1, 2, 4}) {
    EXPECT_EQ(parallel_map<std::uint64_t>(kN, workers, fn,
                                          reversing_costs(kN)),
              unhinted)
        << workers << " workers";
  }
}

TEST(HintedBatch, FailuresKeepTheirSubmissionIndex) {
  // Job 6 throws and the hint starts it first; job 1 throws and starts
  // last. Every failure path still reports them as jobs 1 and 6, in that
  // order.
  constexpr int kN = 8;
  JobCosts cost(kN, 1.0);
  cost[1] = 0;
  cost[6] = 100;
  const auto make_jobs = [] {
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < kN; ++i) {
      jobs.push_back([i] {
        if (i == 1 || i == 6) {
          throw std::logic_error("cell " + std::to_string(i));
        }
      });
    }
    return jobs;
  };
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    // run_jobs rethrows the first failure by submission index, not the
    // first to start.
    try {
      run_jobs(make_jobs(), workers, cost);
      ADD_FAILURE() << "expected an exception";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "cell 1");
    }

    RetryPolicy rp;
    rp.sleep = false;
    const BatchReport rep =
        run_jobs_recover(make_jobs(), workers, rp, cost);
    ASSERT_EQ(rep.failures.size(), 2u);
    EXPECT_EQ(rep.failures[0].job, 1u);
    EXPECT_EQ(rep.failures[0].error, "cell 1");
    EXPECT_EQ(rep.failures[1].job, 6u);
    EXPECT_EQ(rep.failures[1].error, "cell 6");

    const auto [slots, map_rep] = try_parallel_map<int>(
        kN, workers,
        [](int i) {
          if (i == 1 || i == 6) {
            throw std::logic_error("cell " + std::to_string(i));
          }
          return i + 100;
        },
        rp, cost);
    EXPECT_EQ(map_rep.summary(), rep.summary());
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(slots[static_cast<std::size_t>(i)],
                i == 1 || i == 6 ? 0 : i + 100);
    }
  }
}

// --- Suite bit-identity across worker counts -----------------------------

void expect_same(const Summary& a, const Summary& b, const char* what) {
  EXPECT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.q1, b.q1) << what;
  EXPECT_EQ(a.median, b.median) << what;
  EXPECT_EQ(a.q3, b.q3) << what;
  EXPECT_EQ(a.max, b.max) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.stddev, b.stddev) << what;
}

void expect_same(const LinearFit& a, const LinearFit& b, const char* what) {
  EXPECT_EQ(a.alpha, b.alpha) << what;
  EXPECT_EQ(a.beta, b.beta) << what;
  EXPECT_EQ(a.r2, b.r2) << what;
}

void expect_same(const bench::Series& a, const bench::Series& b,
                 const char* what) {
  EXPECT_EQ(a.name, b.name) << what;
  EXPECT_EQ(a.xs, b.xs) << what;
  ASSERT_EQ(a.ys.size(), b.ys.size()) << what;
  for (std::size_t i = 0; i < a.ys.size(); ++i) {
    expect_same(a.ys[i], b.ys[i], what);
  }
}

void expect_same_suite(const bench::SuiteResults& a,
                       const bench::SuiteResults& b) {
  expect_same(a.lat_l1, b.lat_l1, "lat_l1");
  expect_same(a.lat_tile_m, b.lat_tile_m, "lat_tile_m");
  expect_same(a.lat_tile_e, b.lat_tile_e, "lat_tile_e");
  expect_same(a.lat_tile_sf, b.lat_tile_sf, "lat_tile_sf");
  expect_same(a.lat_remote_m, b.lat_remote_m, "lat_remote_m");
  expect_same(a.lat_remote_e, b.lat_remote_e, "lat_remote_e");
  expect_same(a.lat_remote_sf, b.lat_remote_sf, "lat_remote_sf");
  EXPECT_EQ(a.range_remote_m.lo, b.range_remote_m.lo);
  EXPECT_EQ(a.range_remote_m.hi, b.range_remote_m.hi);
  EXPECT_EQ(a.range_remote_e.lo, b.range_remote_e.lo);
  EXPECT_EQ(a.range_remote_e.hi, b.range_remote_e.hi);
  EXPECT_EQ(a.range_remote_sf.lo, b.range_remote_sf.lo);
  EXPECT_EQ(a.range_remote_sf.hi, b.range_remote_sf.hi);
  expect_same(a.bw_read_remote, b.bw_read_remote, "bw_read_remote");
  expect_same(a.bw_copy_tile_m, b.bw_copy_tile_m, "bw_copy_tile_m");
  expect_same(a.bw_copy_tile_e, b.bw_copy_tile_e, "bw_copy_tile_e");
  expect_same(a.bw_copy_remote, b.bw_copy_remote, "bw_copy_remote");
  expect_same(a.multiline_ns, b.multiline_ns, "multiline_ns");
  expect_same(a.contention.fit, b.contention.fit, "contention.fit");
  expect_same(a.contention.per_n, b.contention.per_n, "contention.per_n");
  expect_same(a.congestion.latency_vs_pairs, b.congestion.latency_vs_pairs,
              "congestion");
  EXPECT_EQ(a.congestion.ratio, b.congestion.ratio);
  expect_same(a.mem_lat_dram, b.mem_lat_dram, "mem_lat_dram");
  ASSERT_EQ(a.mem_lat_mcdram.has_value(), b.mem_lat_mcdram.has_value());
  if (a.mem_lat_mcdram) {
    expect_same(*a.mem_lat_mcdram, *b.mem_lat_mcdram, "mem_lat_mcdram");
  }
}

TEST(Suite, BitIdenticalAcrossWorkerCounts) {
  bench::SuiteOptions o;
  o.run.iters = 9;
  o.streams = false;
  o.remote_samples = 2;
  o.contention_ns = {1, 2, 4};
  const sim::MachineConfig cfg = sim::knl7210();

  o.jobs = 1;
  const bench::SuiteResults serial = bench::run_suite(cfg, o);
  o.jobs = 8;
  const bench::SuiteResults parallel = bench::run_suite(cfg, o);
  expect_same_suite(serial, parallel);
}

TEST(Suite, BitIdenticalWithObservabilityAttached) {
  // Attaching trace + metrics sinks (and the process registry that turns on
  // exec profiling) must leave every virtual-time result bit-identical:
  // sinks observe, never steer — even under parallel host execution.
  bench::SuiteOptions o;
  o.run.iters = 9;
  o.streams = false;
  o.remote_samples = 2;
  o.contention_ns = {1, 2, 4};
  o.jobs = 8;
  const sim::MachineConfig bare_cfg = sim::knl7210();
  const bench::SuiteResults bare = bench::run_suite(bare_cfg, o);

  obs::NullSink sink;
  obs::Registry reg;
  obs::set_process_registry(&reg);
  sim::MachineConfig traced_cfg = sim::knl7210();
  traced_cfg.trace = &sink;
  traced_cfg.metrics = &reg;
  const bench::SuiteResults traced = bench::run_suite(traced_cfg, o);
  obs::set_process_registry(nullptr);

  expect_same_suite(bare, traced);
  // And observation did actually happen.
  EXPECT_GT(reg.counter("sim.machines"), 0.0);
  EXPECT_GT(reg.counter("exec.jobs"), 0.0);
}

TEST(Suite, OneBatchOfSuitesMatchesOneSuiteAtATime) {
  bench::SuiteOptions o;
  o.run.iters = 9;
  o.streams = false;
  o.remote_samples = 2;
  o.contention_ns = {1, 2, 4};
  const std::vector<sim::MachineConfig> cfgs{
      sim::knl7210(sim::ClusterMode::kSNC4),
      sim::knl7210(sim::ClusterMode::kQuadrant)};
  o.jobs = 4;
  const std::vector<bench::SuiteResults> batched = bench::run_suites(cfgs, o);
  ASSERT_EQ(batched.size(), cfgs.size());
  o.jobs = 1;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    expect_same_suite(batched[i], bench::run_suite(cfgs[i], o));
  }
}

TEST(CollSweep, MatchesSerialRuns) {
  const sim::MachineConfig cfg = sim::tiny_machine();
  coll::HarnessOptions ho;
  ho.iters = 11;
  const std::vector<coll::SweepPoint> points{
      {coll::Algo::kOmpBarrier, 4},
      {coll::Algo::kMpiBarrier, 8},
      {coll::Algo::kOmpBroadcast, 4},
  };
  const auto swept =
      coll::run_collective_sweep(cfg, points, nullptr, ho, 8);
  ASSERT_EQ(swept.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto direct = coll::run_collective(cfg, points[i].algo,
                                             points[i].nthreads, nullptr, ho);
    expect_same(swept[i].per_iter_max, direct.per_iter_max, "coll sweep");
    EXPECT_EQ(swept[i].errors, direct.errors);
  }
}

}  // namespace
}  // namespace capmem::exec
