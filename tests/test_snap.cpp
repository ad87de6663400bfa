// capmem::snap property tests: byte-stable round-trips over randomized
// machine states across every preset/protocol/memory mode, structured
// rejection (SnapError, never UB) of truncated and bit-flipped inputs,
// version/config-skew messages, and the L1 presence masks a capture
// derives. The whole-run restore-identity sweep lives in
// test_restore_identity.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "check/differ.hpp"
#include "common/fnv.hpp"
#include "sim/machine.hpp"
#include "snap/snapshot.hpp"

namespace capmem::snap {
namespace {

using check::WorkloadRun;
using check::WorkloadSpec;
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

/// FNV-1a of the payload slice of a snapshot: the bytes between the header
/// and the trailing checksum.
std::uint64_t payload_hash(const std::vector<std::uint8_t>& bytes) {
  const SnapInfo info = peek(bytes);
  const std::size_t header = bytes.size() - info.payload_bytes - 8;
  return common::fnv1a(bytes.data() + header, info.payload_bytes);
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
        const MachineConfig& cfg = run.machine().config();
        // Mid-schedule for most specs (end is fine too), then quiescent.
        for (std::uint64_t until : {300, 0}) {
          run.run_until(until);
          const sim::state::MachineState s = capture(run.machine());
          const std::vector<std::uint8_t> bytes = encode(s, cfg);
          const sim::state::MachineState back = decode(bytes, cfg);
          const std::vector<std::uint8_t> again = encode(back, cfg);
          ASSERT_EQ(bytes, again)
              << machine << "/" << sim::to_string(protocol) << "/"
              << sim::to_string(memory) << " quiescent=" << s.quiescent
              << ": serialize -> deserialize -> serialize changed bytes";
          // digest() streams the state through the encoder into the
          // hasher and never builds the payload encode() writes.
          EXPECT_EQ(digest(s), payload_hash(bytes));
          EXPECT_EQ(digest(s), digest(back));
          EXPECT_EQ(snapshot_id(bytes), snapshot_id(again));
        }
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

TEST(SnapDigest, ZeroTagWithLiveStampAndMostlyZeroData) {
  sim::Machine m(sim::machine_preset("tiny_8t", sim::ClusterMode::kQuadrant,
                                     sim::MemoryMode::kFlat));
  // A data-carrying allocation whose bytes are mostly zero.
  const sim::Addr buf = m.alloc("mostly_zero", 4 * 4096 + 64, {}, true);
  m.space().store<std::uint64_t>(buf + 8, 0x00ff000000000100ull);
  m.space().store<std::uint8_t>(buf + 4096 + 3, 0x7f);
  m.space().store<std::uint8_t>(buf + 4 * 4096 + 63, 0x01);
  sim::state::MachineState s = capture(m);
  const MachineConfig& cfg = m.config();
  EXPECT_EQ(digest(s), payload_hash(encode(s, cfg)));

  // Line 0 resident: a zero tag kept alive by a non-zero LRU stamp. Its
  // bytes differ from the empty way only in the stamp plane.
  const std::uint64_t empty = digest(s);
  sim::state::CacheState& l1 = s.mem.l1.front();
  ASSERT_EQ(l1.lines.front(), 0u);
  l1.stamps.front() = ++l1.clock;
  ++l1.resident;
  EXPECT_EQ(digest(s), payload_hash(encode(s, cfg)));
  EXPECT_NE(digest(s), empty);
}

/// The live digest reads the cache planes in place instead of capturing
/// them; it must equal the captured digest at every pause point: before the
/// first step, mid-run (populated caches, parked waiters, pending events)
/// and at completion, on every preset, protocol and memory mode, with and
/// without injected faults. The workload's data, counter and slot buffers
/// carry bytes, so allocation data is covered too.
TEST(SnapDigest, LiveMachineMatchesCapture) {
  for (const std::string& machine : sim::machine_preset_names()) {
    for (sim::Protocol protocol :
         {sim::Protocol::kMesif, sim::Protocol::kMesi, sim::Protocol::kMosi}) {
      for (sim::MemoryMode memory :
           {sim::MemoryMode::kFlat, sim::MemoryMode::kCache,
            sim::MemoryMode::kHybrid}) {
        for (int severity : {0, 2}) {
          WorkloadSpec spec = small_spec(
              23 + static_cast<std::uint64_t>(memory), machine, protocol,
              memory);
          spec.fault_severity = severity;
          WorkloadRun run(spec, nullptr);
          const std::string where = machine + "/" +
                                    sim::to_string(protocol) + "/" +
                                    sim::to_string(memory) + " severity " +
                                    std::to_string(severity);
          ASSERT_EQ(digest(run.machine()), digest(capture(run.machine())))
              << where << " before the first step";
          bool done = false;
          for (std::uint64_t until : {40, 150, 400, 0}) {
            if (!done) done = run.run_until(until);
            ASSERT_EQ(digest(run.machine()), digest(capture(run.machine())))
                << where << " at step " << run.steps();
          }
          EXPECT_TRUE(done) << where;
          EXPECT_EQ(capture(run.machine()).quiescent, 1) << where;
        }
      }
    }
  }
}

/// The hash values themselves, recorded before the digest was streamed:
/// a change to the encoder, the hasher or the zero folding that moves any
/// byte or any hash shows here, not only in downstream digests.
TEST(SnapDigest, PinnedDigestAndSnapshotIdOfAFixedState) {
  WorkloadRun run(small_spec(7, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  run.run_until(300);
  const sim::state::MachineState s = capture(run.machine());
  EXPECT_EQ(digest(s), 0xb59bae4267f57010ull);
  EXPECT_EQ(snapshot_id(encode(s, run.machine().config())),
            "snap-6ea3e8165ba53ece");
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

/// A tag-plane count whose byte size wraps 2^64 (8 * (2^61 + 1) = 8 mod
/// 2^64) behind a valid checksum must read as truncation, before any
/// allocation sized by it.
TEST(SnapReject, HostilePlaneCountIsTruncatedNotAllocated) {
  sim::Machine m(sim::machine_preset("tiny_8t", sim::ClusterMode::kQuadrant,
                                     sim::MemoryMode::kFlat));
  sim::state::MachineState s = capture(m);
  constexpr std::uint64_t kSentinel = 0x5e171e1c10c4f00dull;
  s.mem.l1.front().clock = kSentinel;
  const MachineConfig& cfg = m.config();
  std::vector<std::uint8_t> bytes = encode(s, cfg);

  // CacheState travels as clock, resident, tag-plane count, tags, ...
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i + 8 <= bytes.size(); ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + i, 8);
    if (v == kSentinel) hits.push_back(i);
  }
  ASSERT_EQ(hits.size(), 1u);
  const std::size_t count_at = hits.front() + 16;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + count_at, 8);
  ASSERT_EQ(count, s.mem.l1.front().lines.size());

  const std::uint64_t hostile = (std::uint64_t{1} << 61) + 1;
  std::memcpy(bytes.data() + count_at, &hostile, 8);
  const std::uint64_t sum = common::fnv1a(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
  try {
    decode(bytes, cfg);
    FAIL() << "decode accepted a tag plane of 2^61 + 1 words";
  } catch (const SnapError& e) {
    EXPECT_EQ(e.kind(), SnapError::Kind::kTruncated) << e.what();
  }
}

// Every decode re-hashes the whole multi-MB snapshot (cheap over its zero
// runs, which the checksum folds, but still a pass per flip), so the flip
// sweep is sharded: shard k checks every kBitFlipShards-th position of one
// fixed position list, and the shards together cover all of it.
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

/// The live directory records no L1 residency: a snapshot's per-line L1
/// presence mask is derived from the L1 tag arrays, core by core.
TEST(SnapCapture, L1MaskIsDerivedFromTags) {
  WorkloadRun run(small_spec(23, "tiny_8t", sim::Protocol::kMesif,
                             sim::MemoryMode::kFlat),
                  nullptr);
  const sim::MemSystem& mem = run.machine().memsys();
  const int cores = run.machine().config().cores();
  int shared = 0;  // entries held in two or more L1s
  for (std::uint64_t pause : {40, 80, 120, 160}) {
    ASSERT_FALSE(run.run_until(pause)) << "run ended before step " << pause;
    const sim::state::MachineState s = capture(run.machine());
    for (const sim::state::DirEntryState& d : s.mem.directory) {
      std::uint64_t scan = 0;
      for (int c = 0; c < cores; ++c) {
        if (mem.line_in_l1(c, d.line)) scan |= 1ull << c;
      }
      EXPECT_EQ(d.l1_mask, scan) << "line " << d.line << " at " << pause;
      if ((scan & (scan - 1)) != 0) ++shared;
    }
  }
  EXPECT_GT(shared, 0) << "no line was ever in two L1s";
}

}  // namespace
}  // namespace capmem::snap
