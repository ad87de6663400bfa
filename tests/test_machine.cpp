// End-to-end semantics of the simulated machine: latency ordering, cache
// state preparation, flag signalling, contention growth, bandwidth
// saturation, data correctness, and determinism.
#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hpp"

namespace capmem::sim {
namespace {

MachineConfig quiet(MachineConfig cfg) {
  cfg.noise.enabled = false;  // exact numbers for unit assertions
  return cfg;
}

// Measures the latency of `probe_core` reading one line that `prep` left in
// a given state. Returns the read cost in ns.
double measure_read(MachineConfig cfg, int owner_core, int probe_core,
                    bool owner_writes, bool flush_first = false) {
  Machine m(quiet(cfg));
  const Addr buf = m.alloc("buf", kLineBytes, {}, true);
  double cost = -1;
  m.add_thread({owner_core, 0}, [&](Ctx& ctx) -> Task {
    if (owner_writes) {
      co_await ctx.write_u64(buf, 1);
    } else {
      co_await ctx.read_u64(buf);
    }
    co_await ctx.sync();
  });
  m.add_thread({probe_core, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.sync();
    if (flush_first) ctx.machine().flush_buffer(buf, kLineBytes);
    const Nanos t0 = ctx.now();
    co_await ctx.read_u64(buf);
    cost = ctx.now() - t0;
  });
  m.run();
  return cost;
}

TEST(Machine, LatencyOrderingMatchesHierarchy) {
  const MachineConfig cfg = knl7210();
  // Same core re-read: L1 hit.
  const double l1 = measure_read(cfg, 0, 0, true);
  // Other core, same tile (cores 0 and 1 share tile 0), owner modified.
  const double tile_m = measure_read(cfg, 0, 1, true);
  // Remote tile, modified.
  const double remote_m = measure_read(cfg, 0, 10, true);
  // From memory (flushed everywhere first).
  const double dram = measure_read(cfg, 0, 10, true, /*flush_first=*/true);

  EXPECT_LT(l1, tile_m);
  EXPECT_LT(tile_m, remote_m);
  EXPECT_LT(remote_m, dram);
  EXPECT_NEAR(l1, cfg.lat.l1_hit, 1.0);
  EXPECT_NEAR(tile_m, cfg.lat.l2_tile_m, 2.0);
  EXPECT_GT(remote_m, 90.0);
  EXPECT_LT(remote_m, 140.0);
  EXPECT_GT(dram, 120.0);
  EXPECT_LT(dram, 165.0);
}

TEST(Machine, ExclusiveCheaperThanModifiedWithinTile) {
  const MachineConfig cfg = knl7210();
  const double tile_m = measure_read(cfg, 0, 1, /*owner_writes=*/true);
  const double tile_e = measure_read(cfg, 0, 1, /*owner_writes=*/false);
  EXPECT_LT(tile_e, tile_m);
}

TEST(Machine, McdramFlatHasHigherLatencyThanDram) {
  MachineConfig cfg = knl7210();
  auto probe_mem = [&](MemKind kind) {
    Machine m(quiet(cfg));
    const Addr buf = m.alloc("b", kLineBytes, {kind, std::nullopt}, true);
    double cost = -1;
    m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
      const Nanos t0 = ctx.now();
      co_await ctx.read_u64(buf);
      cost = ctx.now() - t0;
    });
    m.run();
    return cost;
  };
  const double dram = probe_mem(MemKind::kDDR);
  const double mcdram = probe_mem(MemKind::kMCDRAM);
  EXPECT_GT(mcdram, dram);       // Table II: 160-175 vs 130-146 ns
  EXPECT_NEAR(dram, 138, 18);
  EXPECT_NEAR(mcdram, 166, 18);
}

TEST(Machine, StateAfterWriteIsModified) {
  Machine m(quiet(knl7210()));
  const Addr buf = m.alloc("b", kLineBytes, {}, true);
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.write_u64(buf, 7);
  });
  m.run();
  EXPECT_EQ(m.memsys().state_in_tile(line_of(buf), 0), TileState::kM);
}

TEST(Machine, StateAfterReadIsExclusiveThenSharedForward) {
  Machine m(quiet(knl7210()));
  const Addr buf = m.alloc("b", kLineBytes, {}, true);
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.read_u64(buf);
    co_await ctx.sync();
    co_await ctx.sync();
  });
  m.add_thread({10, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.sync();
    co_await ctx.read_u64(buf);
    co_await ctx.sync();
  });
  m.run();
  // After both reads: requester (core 10, tile 5) holds F, owner became S.
  EXPECT_EQ(m.memsys().state_in_tile(line_of(buf), 5), TileState::kF);
  EXPECT_EQ(m.memsys().state_in_tile(line_of(buf), 0), TileState::kS);
}

TEST(Machine, WriteInvalidatesSharers) {
  Machine m(quiet(knl7210()));
  const Addr buf = m.alloc("b", kLineBytes, {}, true);
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.read_u64(buf);
    co_await ctx.sync();
    co_await ctx.sync();
  });
  m.add_thread({20, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.sync();
    co_await ctx.write_u64(buf, 1);
    co_await ctx.sync();
  });
  m.run();
  EXPECT_EQ(m.memsys().state_in_tile(line_of(buf), 0), TileState::kI);
  EXPECT_EQ(m.memsys().state_in_tile(line_of(buf), 10), TileState::kM);
}

TEST(Machine, FlagSignallingWakesConsumerAfterProducer) {
  Machine m(quiet(knl7210()));
  const Addr flag = m.alloc("flag", kLineBytes, {}, true);
  Nanos produced = -1, consumed = -1;
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.compute(500.0);
    co_await ctx.write_u64(flag, 1);
    produced = ctx.now();
  });
  m.add_thread({10, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.wait_eq(flag, 1);
    consumed = ctx.now();
  });
  m.run();
  EXPECT_GT(produced, 500.0);
  // Consumer observes the value only after it is visible, plus a re-fetch.
  EXPECT_GT(consumed, produced);
  EXPECT_LT(consumed, produced + 200.0);
  EXPECT_EQ(m.space().load<std::uint64_t>(flag), 1u);
}

TEST(Machine, WaitNeReturnsNewValue) {
  Machine m(quiet(knl7210()));
  const Addr flag = m.alloc("flag", kLineBytes, {}, true);
  std::uint64_t seen = 0;
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.compute(100.0);
    co_await ctx.write_u64(flag, 42);
  });
  m.add_thread({2, 0}, [&](Ctx& ctx) -> Task {
    seen = co_await ctx.wait_ne(flag, 0);
  });
  m.run();
  EXPECT_EQ(seen, 42u);
}

TEST(Machine, ContentionGrowsRoughlyLinearly) {
  // N threads all copy the same owner line; the max completion should grow
  // linearly with N (Table I: T_C(N) = alpha + beta*N).
  auto run_n = [](int n) {
    Machine m(quiet(knl7210()));
    const Addr buf = m.alloc("hot", kLineBytes, {}, true);
    Nanos max_done = 0;
    m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
      co_await ctx.write_u64(buf, 1);
      co_await ctx.sync();
      co_await ctx.sync();
    });
    for (int i = 0; i < n; ++i) {
      m.add_thread({2 + 2 * i, 0}, [&, i](Ctx& ctx) -> Task {
        co_await ctx.sync();
        co_await ctx.read_u64(buf);
        max_done = std::max(max_done, ctx.now());
        co_await ctx.sync();
      });
    }
    m.run();
    return max_done;
  };
  const double t4 = run_n(4);
  const double t16 = run_n(16);
  const double slope = (t16 - t4) / 12.0;
  EXPECT_GT(slope, 15.0);
  EXPECT_LT(slope, 95.0);  // raw line service; the fill-tiles-schedule
                           // benchmark measures the paper's beta ~= 34
}

double aggregate_read_bw(MachineConfig cfg, MemKind kind, int nthreads,
                         std::uint64_t bytes_per_thread) {
  Machine m(quiet(cfg));
  std::vector<Addr> bufs;
  for (int i = 0; i < nthreads; ++i) {
    bufs.push_back(m.alloc("b" + std::to_string(i), bytes_per_thread,
                           {kind, std::nullopt}, false));
  }
  const auto slots = make_schedule(cfg, Schedule::kFillTiles, nthreads);
  Nanos t0 = 0, t1 = 0;
  for (int i = 0; i < nthreads; ++i) {
    m.add_thread(slots[static_cast<std::size_t>(i)],
                 [&, i](Ctx& ctx) -> Task {
                   co_await ctx.sync();
                   co_await ctx.read_buf(bufs[static_cast<std::size_t>(i)],
                                         bytes_per_thread);
                   co_await ctx.sync();
                   if (i == 0) t1 = ctx.now();
                 });
  }
  t0 = 0;
  m.run();
  const double total =
      static_cast<double>(bytes_per_thread) * nthreads;
  return bandwidth_gbps(static_cast<std::uint64_t>(total), t1 - t0);
}

TEST(Machine, DramReadBandwidthSaturates) {
  const MachineConfig cfg = knl7210();
  const double bw8 = aggregate_read_bw(cfg, MemKind::kDDR, 8, MiB(2));
  const double bw32 = aggregate_read_bw(cfg, MemKind::kDDR, 32, MiB(2));
  EXPECT_GT(bw8, 30.0);
  EXPECT_GT(bw32, bw8 * 0.9);
  EXPECT_LT(bw32, 90.0);  // never exceeds the channel aggregate
}

TEST(Machine, McdramBandwidthExceedsDram) {
  const MachineConfig cfg = knl7210();
  const double dram = aggregate_read_bw(cfg, MemKind::kDDR, 32, MiB(2));
  const double mcd = aggregate_read_bw(cfg, MemKind::kMCDRAM, 32, MiB(2));
  EXPECT_GT(mcd, dram * 2.0);  // paper: ~4x on read at scale
}

TEST(Machine, CopyMovesData) {
  Machine m(quiet(knl7210()));
  const std::uint64_t n = KiB(4);
  const Addr src = m.alloc("src", n, {}, true);
  const Addr dst = m.alloc("dst", n, {}, true);
  for (std::uint64_t i = 0; i < n / 8; ++i)
    m.space().store<std::uint64_t>(src + i * 8, i * 3 + 1);
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.copy(dst, src, n);
  });
  m.run();
  for (std::uint64_t i = 0; i < n / 8; ++i)
    ASSERT_EQ(m.space().load<std::uint64_t>(dst + i * 8), i * 3 + 1);
}

TEST(Machine, NtWriteBeatsRfoWriteOnVisibleBandwidth) {
  auto write_bw = [](bool nt) {
    Machine m(quiet(knl7210()));
    const std::uint64_t bytes = MiB(4);
    std::vector<Addr> bufs;
    const int n = 16;
    for (int i = 0; i < n; ++i)
      bufs.push_back(m.alloc("b" + std::to_string(i), bytes, {}, false));
    Nanos end = 0;
    const auto slots = make_schedule(knl7210(), Schedule::kFillTiles, n);
    for (int i = 0; i < n; ++i) {
      m.add_thread(slots[static_cast<std::size_t>(i)],
                   [&, i, nt](Ctx& ctx) -> Task {
                     BufOpts o;
                     o.nt = nt;
                     co_await ctx.write_buf(bufs[static_cast<std::size_t>(i)],
                                            bytes, o);
                     end = std::max(end, ctx.now());
                   });
    }
    m.run();
    return bandwidth_gbps(bytes * n, end);
  };
  const double rfo = write_bw(false);
  const double nt = write_bw(true);
  EXPECT_GT(nt, rfo * 1.5);  // RFO doubles the channel traffic
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine m(knl7210());  // noise ON: determinism must still hold
    const Addr buf = m.alloc("b", KiB(64), {}, false);
    Nanos end = 0;
    for (int i = 0; i < 4; ++i) {
      m.add_thread({i * 2, 0}, [&, i](Ctx& ctx) -> Task {
        co_await ctx.read_buf(buf, KiB(64));
        end = std::max(end, ctx.now());
      });
    }
    m.run();
    return end;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Machine, CountersTrackHitsAndMemory) {
  Machine m(quiet(knl7210()));
  const Addr buf = m.alloc("b", KiB(1), {}, true);
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.read_u64(buf);   // DRAM
    co_await ctx.read_u64(buf);   // L1
    co_await ctx.read_u64(buf);   // L1
  });
  m.run();
  const auto& c = m.memsys().counters(0);
  EXPECT_EQ(c.dram_lines, 1u);
  EXPECT_EQ(c.l1_hits, 2u);
  EXPECT_EQ(c.line_ops, 3u);
}

TEST(Machine, RdtscQuantizedAndSkewed) {
  Machine m(quiet(knl7210()));
  std::uint64_t tick0 = 0, tick1 = 0;
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    tick0 = ctx.rdtsc();
    co_await ctx.compute(100.0);
    tick1 = ctx.rdtsc();
  });
  m.run();
  EXPECT_GE(tick1, tick0 + 9);  // ~100ns at 10ns resolution
  EXPECT_LE(tick1, tick0 + 11);
}

TEST(Machine, CacheModeRejectsMcdramAllocations) {
  Machine m(quiet(knl7210(ClusterMode::kQuadrant, MemoryMode::kCache)));
  EXPECT_THROW(m.alloc("x", kLineBytes, {MemKind::kMCDRAM, std::nullopt}),
               CheckError);
}

TEST(Machine, CacheModeSecondAccessHitsMcdramCache) {
  Machine m(quiet(knl7210(ClusterMode::kQuadrant, MemoryMode::kCache)));
  const Addr buf = m.alloc("b", kLineBytes, {}, true);
  std::vector<Level> levels;
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    auto r1 = co_await ctx.touch(buf, AccessType::kRead);
    ctx.machine().flush_buffer(buf, kLineBytes,
                               /*drop_mcdram_cache=*/false);
    auto r2 = co_await ctx.touch(buf, AccessType::kRead);
    levels.push_back(r1.level);
    levels.push_back(r2.level);
  });
  m.run();
  EXPECT_EQ(levels[0], Level::kMcdramCacheMiss);
  EXPECT_EQ(levels[1], Level::kMcdramCacheHit);
}

// A line index with bit 31 set is negative once truncated to int, and so is
// its remainder by the channel count unless it divides evenly; every
// MCDRAM-cache channel pick (miss fill, hit, dirty L2 write-back, NT store)
// must reduce the full index instead. Dataless buffers cost nothing, so a
// 130 GiB one reaches line 2^31 at 128 GiB.
TEST(Machine, CacheModeChannelOfLinePastBit31) {
  Machine m(quiet(knl7210(ClusterMode::kQuadrant, MemoryMode::kCache)));
  const Addr buf = m.alloc("huge", GiB(130), {}, false);
  const Line far = (Line{1} << 31) + 3;
  ASSERT_LT(static_cast<int>(far) % m.memsys().mcdram_pool().size(), 0);
  ASSERT_GE(far * kLineBytes, buf);
  const Addr a = far * kLineBytes;
  // Same-set lines of the tile's L2, enough to evict the dirty line.
  const SetAssocCache& l2 = m.memsys().l2_cache(0);
  const Addr set_stride = static_cast<Addr>(l2.sets()) * kLineBytes;
  ASSERT_LE(a + set_stride * static_cast<Addr>(l2.ways() + 1),
            buf + GiB(130));
  std::vector<Level> levels;
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    levels.push_back((co_await ctx.touch(a, AccessType::kRead)).level);
    ctx.machine().flush_buffer(a, kLineBytes, /*drop_mcdram_cache=*/false);
    levels.push_back((co_await ctx.touch(a, AccessType::kRead)).level);
    co_await ctx.touch(a, AccessType::kWrite);  // M in tile 0's L2
    for (int w = 1; w <= l2.ways(); ++w) {
      co_await ctx.touch(a + set_stride * static_cast<Addr>(w),
                         AccessType::kRead);
    }
    EXPECT_EQ(ctx.machine().memsys().state_in_tile(far, 0), TileState::kI)
        << "the dirty line was not written back";
    AccessOpts nt;
    nt.nt = true;
    levels.push_back((co_await ctx.touch(a, AccessType::kWrite, nt)).level);
  });
  m.run();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], Level::kMcdramCacheMiss);
  EXPECT_EQ(levels[1], Level::kMcdramCacheHit);
  EXPECT_EQ(levels[2], Level::kMcdramCacheHit);
  EXPECT_GE(m.memsys().counters(0).line_ops, 4u + l2.ways());
}

TEST(Machine, SmtThreadsShareCoreIssuePorts) {
  // 4 streaming threads on one core should be much slower than 4 threads on
  // 4 different cores (Fig. 9: compact needs 4x the threads).
  auto run_sched = [](bool same_core) {
    Machine m(quiet(knl7210()));
    const std::uint64_t bytes = KiB(256);
    std::vector<Addr> bufs;
    for (int i = 0; i < 4; ++i)
      bufs.push_back(m.alloc("b" + std::to_string(i), bytes, {}, false));
    Nanos end = 0;
    for (int i = 0; i < 4; ++i) {
      const CpuSlot slot = same_core ? CpuSlot{0, i} : CpuSlot{i * 2, 0};
      m.add_thread(slot, [&, i](Ctx& ctx) -> Task {
        co_await ctx.read_buf(bufs[static_cast<std::size_t>(i)], bytes);
        end = std::max(end, ctx.now());
      });
    }
    m.run();
    return end;
  };
  EXPECT_GT(run_sched(true), run_sched(false) * 2.0);
}

}  // namespace
}  // namespace capmem::sim
