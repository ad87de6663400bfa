// Tests of the measurement layer, run on the tiny machine so they stay
// fast: the benchmarks must recover the qualitative structure the
// simulator implements (latency ordering, contention linearity, NT gains,
// saturation) without reading any ground-truth constants.
#include <gtest/gtest.h>

#include "bench/c2c.hpp"
#include "bench/congestion.hpp"
#include "bench/contention.hpp"
#include "bench/multiline.hpp"
#include "bench/pointer_chase.hpp"
#include "bench/stream.hpp"
#include "bench/suite.hpp"

namespace capmem::bench {
namespace {

using sim::ClusterMode;
using sim::knl7210;
using sim::MachineConfig;
using sim::MemKind;
using sim::MemoryMode;

C2COptions quick_c2c() {
  C2COptions o;
  o.run.iters = 21;
  return o;
}

TEST(C2CBench, StateOrderingWithinTile) {
  const MachineConfig cfg = knl7210();
  const Summary m = c2c_read_latency(cfg, 1, 0, PrepState::kM, quick_c2c());
  const Summary e = c2c_read_latency(cfg, 1, 0, PrepState::kE, quick_c2c());
  const Summary sf = c2c_read_latency(cfg, 1, 0, PrepState::kS, quick_c2c());
  EXPECT_GT(m.median, e.median);
  EXPECT_GT(e.median, sf.median);
}

TEST(C2CBench, RemoteSlowerThanTileSlowerThanL1) {
  const MachineConfig cfg = knl7210();
  const Summary l1 = c2c_read_latency(cfg, 0, 0, PrepState::kE, quick_c2c());
  const Summary tile =
      c2c_read_latency(cfg, 1, 0, PrepState::kE, quick_c2c());
  const Summary remote =
      c2c_read_latency(cfg, 20, 0, PrepState::kE, quick_c2c());
  EXPECT_LT(l1.median, tile.median);
  EXPECT_LT(tile.median, remote.median);
}

TEST(C2CBench, InvalidStateIsServedByMemory) {
  const MachineConfig cfg = knl7210();
  const Summary i = c2c_read_latency(cfg, 20, 0, PrepState::kI, quick_c2c());
  const Summary m = c2c_read_latency(cfg, 20, 0, PrepState::kM, quick_c2c());
  EXPECT_GT(i.median, m.median);  // memory beyond a cache transfer
}

TEST(C2CBench, ForwardStatePreparationInvolvesHelper) {
  const MachineConfig cfg = knl7210();
  const Summary f = c2c_read_latency(cfg, 20, 0, PrepState::kF, quick_c2c());
  EXPECT_GT(f.median, 80.0);
  EXPECT_LT(f.median, 150.0);
}

TEST(C2CBench, PerCoreSeriesCoversAllOtherCores) {
  MachineConfig cfg = sim::tiny_machine();
  C2COptions o;
  o.run.iters = 9;
  const auto series =
      c2c_latency_per_core(cfg, 0, {PrepState::kE}, o);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].size(), static_cast<std::size_t>(cfg.cores() - 1));
}

TEST(ContentionBench, FitIsLinearWithPositiveSlope) {
  const MachineConfig cfg = knl7210();
  ContentionOptions o;
  o.run.iters = 21;
  const ContentionResult r = contention_1n(cfg, {1, 2, 4, 8, 16}, o);
  EXPECT_GT(r.fit.beta, 10.0);
  EXPECT_GT(r.fit.r2, 0.95);
  // Monotone medians.
  for (std::size_t i = 1; i < r.per_n.size(); ++i) {
    EXPECT_GE(r.per_n.ys[i].median, r.per_n.ys[i - 1].median * 0.9);
  }
}

TEST(CongestionBench, NoMeshCongestion) {
  const MachineConfig cfg = knl7210();
  CongestionOptions o;
  o.run.iters = 15;
  const CongestionResult r = congestion_pairs(cfg, {1, 4, 8}, o);
  EXPECT_LT(r.ratio, 1.25);  // the paper reports "None"
}

TEST(MultilineBench, VectorBeatsScalar) {
  const MachineConfig cfg = knl7210();
  MultilineOptions o;
  o.run.iters = 9;
  const Summary vec =
      multiline_bw(cfg, 20, 0, KiB(32), XferOp::kRead, PrepState::kE, o);
  o.vector = false;
  const Summary scalar =
      multiline_bw(cfg, 20, 0, KiB(32), XferOp::kRead, PrepState::kE, o);
  EXPECT_GT(vec.median, scalar.median * 1.5);  // paper: 2.5 vs 1 GB/s
}

TEST(MultilineBench, CopyFasterThanReadRemote) {
  const MachineConfig cfg = knl7210();
  MultilineOptions o;
  o.run.iters = 9;
  const Summary copy =
      multiline_bw(cfg, 20, 0, KiB(32), XferOp::kCopy, PrepState::kE, o);
  const Summary read =
      multiline_bw(cfg, 20, 0, KiB(32), XferOp::kRead, PrepState::kE, o);
  EXPECT_GT(copy.median, read.median * 1.5);  // paper: ~7.5 vs 2.5
}

TEST(MemLatencyBench, McdramAboveDram) {
  const MachineConfig cfg = knl7210();
  MemLatencyOptions o;
  o.run.iters = 31;
  const Summary dram = memory_latency(cfg, MemKind::kDDR, o);
  const Summary mcdram = memory_latency(cfg, MemKind::kMCDRAM, o);
  EXPECT_GT(mcdram.median, dram.median + 10.0);
}

TEST(MemLatencyBench, CacheModeNearMcdramLatency) {
  MachineConfig cfg = knl7210(ClusterMode::kQuadrant, MemoryMode::kCache);
  cfg.scale_memory(512);
  MemLatencyOptions o;
  o.run.iters = 31;
  const Summary lat = memory_latency(cfg, MemKind::kDDR, o);
  EXPECT_GT(lat.median, 150.0);
  EXPECT_LT(lat.median, 200.0);  // paper: 158-178 ns
}

TEST(StreamBench, McdramAggregateBeatsDram) {
  const MachineConfig cfg = knl7210();
  StreamConfig sc;
  sc.run.iters = 3;
  sc.buffer_bytes = KiB(128);
  sc.nthreads = 32;
  sc.kind = MemKind::kDDR;
  const double dram = stream_bench(cfg, StreamOp::kRead, sc).gbps.median;
  sc.kind = MemKind::kMCDRAM;
  const double mcdram = stream_bench(cfg, StreamOp::kRead, sc).gbps.median;
  EXPECT_GT(mcdram, dram * 2.0);
}

TEST(StreamBench, WriteHalvedByTurnaround) {
  const MachineConfig cfg = knl7210();
  StreamConfig sc;
  sc.run.iters = 3;
  sc.buffer_bytes = KiB(128);
  sc.nthreads = 16;
  const double rd = stream_bench(cfg, StreamOp::kRead, sc).gbps.median;
  const double wr = stream_bench(cfg, StreamOp::kWrite, sc).gbps.median;
  EXPECT_LT(wr, rd * 0.7);
  EXPECT_GT(wr, rd * 0.3);
}

TEST(StreamBench, StreamConventionFactors) {
  EXPECT_DOUBLE_EQ(stream_bytes_factor(StreamOp::kCopy), 2.0);
  EXPECT_DOUBLE_EQ(stream_bytes_factor(StreamOp::kTriad), 3.0);
  EXPECT_DOUBLE_EQ(stream_bytes_factor(StreamOp::kRead), 1.0);
  EXPECT_DOUBLE_EQ(stream_bytes_factor(StreamOp::kWrite), 1.0);
}

TEST(StreamBench, ThreadSweepIsMonotoneUntilSaturation) {
  const MachineConfig cfg = knl7210();
  StreamConfig sc;
  sc.run.iters = 3;
  sc.buffer_bytes = KiB(128);
  sc.kind = MemKind::kDDR;
  const Series s =
      stream_thread_sweep(cfg, StreamOp::kRead, {sc}, {1, 4, 16}).at(0);
  EXPECT_LT(s.ys[0].median, s.ys[1].median);
  EXPECT_LT(s.ys[1].median, s.ys[2].median * 1.05);
}

TEST(Suite, CacheHalfPopulatesEverything) {
  SuiteOptions o;
  o.run.iters = 9;
  o.streams = false;
  o.remote_samples = 2;
  o.contention_ns = {1, 2, 4};
  const SuiteResults r = run_suite(knl7210(), o);
  EXPECT_GT(r.lat_l1.median, 0);
  EXPECT_GT(r.lat_remote_m.median, r.lat_tile_m.median);
  EXPECT_GE(r.range_remote_m.hi, r.range_remote_m.lo);
  EXPECT_GT(r.contention.fit.beta, 0);
  EXPECT_TRUE(r.mem_lat_mcdram.has_value());
  EXPECT_FALSE(r.has_streams);
}

TEST(Suite, MedianCiAcceptanceCriterion) {
  // The paper only reports medians within 10% of the 95% CI; the suite's
  // latency summaries must satisfy that with modest iteration counts.
  SuiteOptions o;
  o.run.iters = 31;
  o.streams = false;
  o.remote_samples = 2;
  o.contention_ns = {1, 2};
  const SuiteResults r = run_suite(knl7210(), o);
  EXPECT_TRUE(r.lat_l1.median_within(0.10));
  EXPECT_TRUE(r.lat_tile_m.median_within(0.10));
  EXPECT_TRUE(r.mem_lat_dram.median_within(0.10));
}

}  // namespace
}  // namespace capmem::bench
