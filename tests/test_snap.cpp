// capmem::snap property tests: byte-stable round-trips over randomized
// machine states across every preset/protocol/memory mode, structured
// rejection (SnapError, never UB) of truncated and bit-flipped inputs,
// version/config-skew messages, fork identity/divergence semantics, and
// the forked-experiment recovery contract (aborts after restore are
// retried/quarantined exactly like cold-start jobs, BatchReport
// byte-identical at any worker count). The whole-run restore-identity
// sweep lives in test_restore_identity.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/differ.hpp"
#include "exec/forked.hpp"
#include "sim/machine.hpp"
#include "snap/snapshot.hpp"

namespace capmem::snap {
namespace {

using check::WorkloadRun;
using check::WorkloadSpec;
using sim::Machine;
using sim::MachineConfig;

/// A small randomized workload paused mid-schedule: the richest state we
/// can cheaply reach (populated caches, directory entries, parked waiters,
/// pending queue events, advanced RNG).
WorkloadSpec small_spec(std::uint64_t seed, const std::string& machine,
                        sim::Protocol protocol, sim::MemoryMode memory) {
  WorkloadSpec spec;
  spec.threads = 4;
  spec.ops_per_thread = 40;
  spec.data_lines = 6;
  spec.counter_lines = 2;
  spec.seed = seed;
  spec.machine = machine;
  spec.protocol = protocol;
  spec.memory = memory;
  return spec;
}

TEST(SnapRoundTrip, ByteStableAcrossPresetsProtocolsAndModes) {
  for (const char* machine : {"tiny_8t", "mini_16t", "tall_24t"}) {
    for (sim::Protocol protocol :
         {sim::Protocol::kMesif, sim::Protocol::kMesi, sim::Protocol::kMosi}) {
      for (sim::MemoryMode memory :
           {sim::MemoryMode::kFlat, sim::MemoryMode::kCache,
            sim::MemoryMode::kHybrid}) {
        const WorkloadSpec spec =
            small_spec(7 + static_cast<std::uint64_t>(memory), machine,
                       protocol, memory);
        WorkloadRun run(spec, nullptr);
        run.run_until(300);  // mid-schedule for most specs; end is fine too
        const MachineConfig& cfg = run.machine().config();
        const sim::state::MachineState s = capture(run.machine());
        const std::vector<std::uint8_t> bytes = encode(s, cfg);
        const sim::state::MachineState back = decode(bytes, cfg);
        const std::vector<std::uint8_t> again = encode(back, cfg);
        ASSERT_EQ(bytes, again)
            << machine << "/" << sim::to_string(protocol) << "/"
            << sim::to_string(memory)
            << ": serialize -> deserialize -> serialize changed bytes";
        EXPECT_EQ(digest(s), digest(back));
        EXPECT_EQ(snapshot_id(bytes), snapshot_id(again));
      }
    }
  }
}

TEST(SnapRoundTrip, HeaderPeekMatchesCapturedRun) {
  WorkloadRun run(small_spec(11, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  run.run_until(200);
  const sim::state::MachineState s = capture(run.machine());
  const auto bytes = encode(s, run.machine().config());
  const SnapInfo info = peek(bytes);
  EXPECT_EQ(info.version, kFormatVersion);
  EXPECT_EQ(info.steps, run.steps());
  EXPECT_EQ(info.config, config_hash(run.machine().config()));
  EXPECT_EQ(info.schema, schema_hash());
  // magic + version + config + schema + steps + virt-time + payload-len,
  // then the payload itself, then the trailing FNV checksum.
  EXPECT_EQ(bytes.size(),
            8 + 4 + 8 + 8 + 8 + 8 + 8 + info.payload_bytes + 8);
}

TEST(SnapRoundTrip, SnapshotIdIsStableAndWellFormed) {
  WorkloadRun run(small_spec(13, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  run.run_until(150);
  const auto bytes = encode(capture(run.machine()), run.machine().config());
  const std::string id = snapshot_id(bytes);
  EXPECT_EQ(id, snapshot_id(bytes));
  ASSERT_EQ(id.size(), 5u + 16u);
  EXPECT_EQ(id.substr(0, 5), "snap-");
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef", 5), std::string::npos);
}

/// Every truncation of a valid snapshot must throw SnapError (structured,
/// catchable) and never reach the simulator structures. Boundary lengths
/// are swept exhaustively; the payload interior is sampled.
TEST(SnapReject, EveryTruncationThrowsSnapError) {
  WorkloadRun run(small_spec(17, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  run.run_until(120);
  const MachineConfig& cfg = run.machine().config();
  const auto bytes = encode(capture(run.machine()), cfg);

  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64 && n < bytes.size(); ++n)
    lengths.push_back(n);  // header region, exhaustively
  for (std::size_t n = 64; n < bytes.size(); n += 997)
    lengths.push_back(n);  // payload interior, sampled
  for (std::size_t back = 1; back <= 16; ++back)
    lengths.push_back(bytes.size() - back);  // checksum region

  for (std::size_t n : lengths) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(n));
    try {
      decode(cut, cfg);
      FAIL() << "decode accepted a snapshot truncated to " << n << " of "
             << bytes.size() << " bytes";
    } catch (const SnapError& e) {
      EXPECT_TRUE(e.kind() == SnapError::Kind::kTruncated ||
                  e.kind() == SnapError::Kind::kCorrupt)
          << "truncated to " << n << ": kind " << to_string(e.kind());
      EXPECT_NE(std::string(e.what()).find("snapshot"), std::string::npos);
    }
  }
}

// Every decode of the multi-MB snapshot pays the full checksum pass, so the
// flip sweep is sharded: shard k checks every kBitFlipShards-th position of
// one fixed position list, and the shards together cover all of it.
constexpr int kBitFlipShards = 8;

class SnapBitFlip : public ::testing::TestWithParam<int> {};

TEST_P(SnapBitFlip, EveryBitFlipThrowsSnapError) {
  WorkloadRun run(small_spec(19, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  run.run_until(120);
  const MachineConfig& cfg = run.machine().config();
  auto bytes = encode(capture(run.machine()), cfg);

  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < 60 && i < bytes.size(); ++i)
    positions.push_back(i);  // whole header, exhaustively
  for (std::size_t i = 60; i < bytes.size(); i += 509)
    positions.push_back(i);  // payload, sampled
  for (std::size_t back = 1; back <= 8; ++back)
    positions.push_back(bytes.size() - back);  // the checksum itself

  for (std::size_t k = static_cast<std::size_t>(GetParam());
       k < positions.size(); k += kBitFlipShards) {
    const std::size_t pos = positions[k];
    for (int bit : {0, 3, 7}) {
      // Flip in place and flip back: no 2 MB copy per flip.
      bytes[pos] = static_cast<std::uint8_t>(bytes[pos] ^ (1u << bit));
      EXPECT_THROW(decode(bytes, cfg), SnapError)
          << "flip at byte " << pos << " bit " << bit << " was accepted";
      bytes[pos] = static_cast<std::uint8_t>(bytes[pos] ^ (1u << bit));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, SnapBitFlip,
                         ::testing::Range(0, kBitFlipShards));

TEST(SnapReject, ForeignBytesAreBadMagic) {
  std::vector<std::uint8_t> garbage(256, 0x5a);
  const MachineConfig cfg = sim::machine_preset(
      "tiny_8t", sim::ClusterMode::kQuadrant, sim::MemoryMode::kFlat);
  try {
    decode(garbage, cfg);
    FAIL() << "decode accepted non-snapshot bytes";
  } catch (const SnapError& e) {
    EXPECT_EQ(e.kind(), SnapError::Kind::kBadMagic);
    EXPECT_NE(std::string(e.what()).find("CAPSNAP1"), std::string::npos);
  }
}

TEST(SnapReject, VersionSkewIsActionable) {
  WorkloadRun run(small_spec(23, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  run.run_until(100);
  const MachineConfig& cfg = run.machine().config();
  std::vector<std::uint8_t> bytes =
      encode(capture(run.machine()), cfg);
  bytes[8] = static_cast<std::uint8_t>(kFormatVersion + 1);  // u32 LE lsb
  try {
    decode(bytes, cfg);
    FAIL() << "decode accepted a future format version";
  } catch (const SnapError& e) {
    EXPECT_EQ(e.kind(), SnapError::Kind::kVersionMismatch);
    const std::string what = e.what();
    // The message must tell the user what to do, not just that it failed.
    EXPECT_NE(what.find("re-capture"), std::string::npos) << what;
    EXPECT_NE(what.find("v" + std::to_string(kFormatVersion)),
              std::string::npos)
        << what;
  }
}

TEST(SnapReject, ConfigSkewNamesBothHashesAndTheFix) {
  WorkloadRun run(small_spec(29, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  run.run_until(100);
  const auto bytes = encode(capture(run.machine()), run.machine().config());
  MachineConfig other = sim::machine_preset(
      "tiny_8t", sim::ClusterMode::kQuadrant, sim::MemoryMode::kFlat);
  other.seed = 0xdead;  // seed shapes noise, so it is identity-relevant
  ASSERT_NE(config_hash(other), config_hash(run.machine().config()));
  try {
    decode(bytes, other);
    FAIL() << "decode accepted a snapshot from a different config";
  } catch (const SnapError& e) {
    EXPECT_EQ(e.kind(), SnapError::Kind::kConfigMismatch);
    const std::string what = e.what();
    EXPECT_NE(what.find("rebuild the machine"), std::string::npos) << what;
  }
}

TEST(SnapConfigHash, TracksIdentityNotObservers) {
  MachineConfig a = sim::machine_preset(
      "tiny_8t", sim::ClusterMode::kQuadrant, sim::MemoryMode::kFlat);
  MachineConfig b = a;
  EXPECT_EQ(config_hash(a), config_hash(b));
  b.seed ^= 1;
  EXPECT_NE(config_hash(a), config_hash(b));
  b = a;
  b.protocol = sim::Protocol::kMosi;
  EXPECT_NE(config_hash(a), config_hash(b));
  // Observer hooks and watchdog budgets never change virtual-time results,
  // so they must not change the identity either.
  b = a;
  b.watchdog.max_steps = 12345;
  EXPECT_EQ(config_hash(a), config_hash(b));
}

TEST(SnapFork, SameForkSeedReplaysIdentically) {
  // Warm a machine to quiescence, fork the same measurement twice with the
  // same fork seed: bit-identical virtual results.
  const MachineConfig cfg = sim::machine_preset(
      "tiny_8t", sim::ClusterMode::kQuadrant, sim::MemoryMode::kFlat);
  Machine warmmy(cfg);
  const sim::Addr buf =
      warmmy.alloc("warm", 64 * kLineBytes, {}, true);
  warmmy.add_thread({.core = 0, .smt = 0}, [buf](sim::Ctx& ctx) -> sim::Task {
    for (int i = 0; i < 32; ++i) {
      co_await ctx.write_u64(buf + static_cast<std::uint64_t>(i) *
                                       kLineBytes,
                             static_cast<std::uint64_t>(i));
    }
  });
  warmmy.run();
  const sim::state::MachineState s = capture(warmmy);
  ASSERT_NE(s.quiescent, 0);

  const auto measure = [&](std::uint64_t fork_seed) {
    std::unique_ptr<Machine> m = fork(s, cfg, fork_seed);
    const sim::Addr probe = m->alloc("probe", 8 * kLineBytes, {}, true);
    m->add_thread({.core = 1, .smt = 0},
                  [probe, buf](sim::Ctx& ctx) -> sim::Task {
                    for (int i = 0; i < 8; ++i) {
                      co_await ctx.read_u64(
                          buf + static_cast<std::uint64_t>(i) *
                                    kLineBytes);
                      co_await ctx.write_u64(
                          probe + static_cast<std::uint64_t>(i) *
                                      kLineBytes,
                          1);
                    }
                  });
    m->run();
    return std::pair<std::uint64_t, Nanos>{m->engine().steps(),
                                           m->elapsed()};
  };

  const auto a = measure(5);
  const auto b = measure(5);
  EXPECT_EQ(a, b) << "same fork seed must replay bit-identically";
  const auto c = measure(6);
  // Different fork seeds draw different noise; virtual time (which embeds
  // the noise) must differ even though the program is the same.
  EXPECT_NE(a.second, c.second)
      << "sibling forks should draw independent noise";
  // The warm state a fork resumes from carries the warm run's allocations
  // and data: the measurement read the warm buffer without re-writing it.
  std::unique_ptr<Machine> m = fork(s, cfg, 0);
  EXPECT_EQ(m->elapsed(), warmmy.elapsed());
  EXPECT_EQ(m->space().load<std::uint64_t>(buf + 3 * kLineBytes), 3u);
}

TEST(SnapFork, MidRunStateRefusesDirectInstall) {
  WorkloadRun run(small_spec(31, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  ASSERT_FALSE(run.run_until(50));  // genuinely paused mid-run
  const sim::state::MachineState s = capture(run.machine());
  ASSERT_EQ(s.quiescent, 0);
  EXPECT_THROW(fork(s, run.machine().config(), 1), CheckError)
      << "coroutine frames cannot be deserialized; install must refuse";
}

/// The L1 directory handles are rebuilt on install. A state whose L1 holds a
/// line the directory does not list for that core (a cleared l1_mask bit,
/// or no entry at all) must be refused with a structured error, never
/// leave a handle that names no live entry; so must presence bits beyond
/// the machine's cores.
TEST(SnapFork, InconsistentL1ResidencyIsRefused) {
  const MachineConfig cfg = sim::machine_preset(
      "tiny_8t", sim::ClusterMode::kQuadrant, sim::MemoryMode::kFlat);
  Machine warm(cfg);
  const sim::Addr buf = warm.alloc("warm", 16 * kLineBytes, {}, true);
  warm.add_thread({.core = 0, .smt = 0}, [buf](sim::Ctx& ctx) -> sim::Task {
    for (int i = 0; i < 8; ++i) {
      co_await ctx.read_u64(buf + static_cast<std::uint64_t>(i) * kLineBytes);
    }
  });
  warm.run();
  const sim::state::MachineState s = capture(warm);
  ASSERT_NE(s.quiescent, 0);
  EXPECT_NO_THROW(fork(s, cfg, 0));

  std::size_t held = s.mem.directory.size();
  for (std::size_t i = 0; i < s.mem.directory.size(); ++i) {
    if (s.mem.directory[i].l1_mask != 0) {
      held = i;
      break;
    }
  }
  ASSERT_LT(held, s.mem.directory.size()) << "no L1-resident line captured";

  sim::state::MachineState bit_cleared = s;
  std::uint64_t& mask = bit_cleared.mem.directory[held].l1_mask;
  mask &= mask - 1;  // drop the lowest core's presence bit
  EXPECT_THROW(fork(bit_cleared, cfg, 0), CheckError);

  sim::state::MachineState entry_gone = s;
  entry_gone.mem.directory.erase(entry_gone.mem.directory.begin() +
                                 static_cast<std::ptrdiff_t>(held));
  EXPECT_THROW(fork(entry_gone, cfg, 0), CheckError);

  // Presence bits index the per-core L1 array: a bit naming a core this
  // machine does not have is refused too.
  sim::state::MachineState phantom_core = s;
  phantom_core.mem.directory[held].l1_mask |= 1ull << 63;
  EXPECT_THROW(fork(phantom_core, cfg, 0), CheckError);
}

/// Forked experiments under the recovery layer: a trial that aborts after
/// restore is retried/quarantined exactly like a cold-start job, and the
/// BatchReport is byte-identical at any worker count.
TEST(SnapForkRecovery, AbortAfterRestoreQuarantinesLikeColdStart) {
  const MachineConfig cfg = sim::machine_preset(
      "tiny_8t", sim::ClusterMode::kQuadrant, sim::MemoryMode::kFlat);

  const auto build = [&] {
    exec::ForkedExperiment<int, std::vector<std::uint8_t>, std::uint64_t> e;
    e.configs = {0, 1};
    e.trials = 3;
    e.base_seed = 9;
    e.warm = [&cfg](const int& which, int) {
      MachineConfig c = cfg;
      c.seed = 100 + static_cast<std::uint64_t>(which);
      Machine m(c);
      const sim::Addr buf = m.alloc("w", 16 * kLineBytes, {}, true);
      m.add_thread({.core = 0, .smt = 0},
                   [buf](sim::Ctx& ctx) -> sim::Task {
                     for (int i = 0; i < 16; ++i) {
                       co_await ctx.write_u64(
                           buf + static_cast<std::uint64_t>(i) *
                                     kLineBytes,
                           7);
                     }
                   });
      m.run();
      return encode(capture(m), c);
    };
    e.measure = [&cfg](const int& which, const std::vector<std::uint8_t>& b,
                       const exec::Trial& trial) -> std::uint64_t {
      MachineConfig c = cfg;
      c.seed = 100 + static_cast<std::uint64_t>(which);
      std::unique_ptr<Machine> m =
          fork(decode(b, c), c, trial.seed | 1);
      // Deterministic injected failure in exactly one restored trial: the
      // recovery layer must classify it deterministic and quarantine it
      // without retrying, exactly as it would a cold-start job.
      CAPMEM_CHECK_MSG(!(which == 1 && trial.index == 1),
                       "injected abort after restore");
      m->add_thread({.core = 0, .smt = 0},
                    [](sim::Ctx& ctx) -> sim::Task {
                      co_await ctx.compute(5.0);
                    });
      m->run();
      return m->engine().steps();
    };
    e.reduce = [](const int&, std::vector<std::uint64_t>&& v) {
      std::uint64_t sum = 0;
      for (std::uint64_t x : v) sum += x;
      return sum;
    };
    return e;
  };

  exec::RecoveryOptions ro;
  ro.retry.sleep = false;
  const auto [r1, rep1] = exec::try_run_experiment_forked(build(), 1, ro);
  const auto [r4, rep4] = exec::try_run_experiment_forked(build(), 4, ro);

  EXPECT_EQ(r1, r4) << "results must be bit-identical at any worker count";
  EXPECT_EQ(rep1.summary(), rep4.summary());
  EXPECT_EQ(rep1.jobs, 6u);
  EXPECT_EQ(rep1.ok, 5u);
  EXPECT_EQ(rep1.quarantined, 1u);
  EXPECT_EQ(rep1.retried, 0u) << "deterministic aborts must not be retried";
  ASSERT_EQ(rep1.failures.size(), 1u);
  // Submission order is (config, trial): config 1, trial 1 is job 4.
  EXPECT_EQ(rep1.failures[0].job, 4u);
  EXPECT_EQ(rep1.failures[0].status, exec::JobStatus::kQuarantined);

  // The cold-start control: the same failure thrown from a plain
  // run_jobs_recover batch must produce the same classification, attempt
  // count and summary line shape.
  std::vector<std::function<void()>> cold;
  for (int j = 0; j < 6; ++j) {
    cold.push_back([j] {
      CAPMEM_CHECK_MSG(j != 4, "injected abort after restore");
    });
  }
  const exec::BatchReport cold_rep =
      exec::run_jobs_recover(std::move(cold), 2, ro);
  ASSERT_EQ(cold_rep.failures.size(), 1u);
  EXPECT_EQ(cold_rep.failures[0].job, rep1.failures[0].job);
  EXPECT_EQ(cold_rep.failures[0].status, rep1.failures[0].status);
  EXPECT_EQ(cold_rep.failures[0].attempts, rep1.failures[0].attempts);
  EXPECT_EQ(cold_rep.quarantined, rep1.quarantined);
}

}  // namespace
}  // namespace capmem::snap
