// capmem::snap — versioned whole-simulator checkpoint/restore.
//
// A snapshot is the byte encoding of sim::state::MachineState (the complete
// observable simulator state: engine calendar queue and task clocks, park
// and sync tables, RNG streams, per-tile caches, directory, MCDRAM cache,
// channel reservations, fault counters, address space with backing data)
// behind a self-describing header:
//
//   magic "CAPSNAP1" | u32 format version | u64 config hash |
//   u64 schema hash | u64 engine steps | f64 virtual time |
//   u64 payload length | payload | u64 checksum
//
// The config hash covers every MachineConfig field that shapes virtual-time
// results (topology, cache/memory geometry, latency/bandwidth/noise
// parameters, protocol, seed, attached fault plan) and none of the observer
// hooks; the schema hash is baked into the binary and changes whenever the
// state structs change shape, so stale snapshots from an older build are
// rejected instead of misdecoded. All multi-byte fields are little-endian;
// doubles travel as bit-cast u64, so encode(decode(b)) == b exactly.
//
// A snapshot is a verified record of state, never installed into a Machine:
// coroutine frames do not serialize, so a mid-run state is restored by
// deterministically replaying a fresh machine to the captured step cursor
// and byte-verifying the replayed state against the snapshot, which the
// restore-identity test harness does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "sim/config.hpp"
#include "sim/state.hpp"

namespace capmem::sim {
class Machine;
}  // namespace capmem::sim

namespace capmem::snap {

/// Current snapshot byte-format version.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Structured decode failure. Every malformed input — truncated, foreign,
/// version-skewed, config-skewed or bit-flipped — lands on exactly one of
/// these kinds with an actionable message; malformed bytes never reach the
/// simulator structures.
class SnapError : public CheckError {
 public:
  enum class Kind {
    kTruncated,        ///< fewer bytes than the header/payload promise
    kBadMagic,         ///< not a capmem snapshot at all
    kVersionMismatch,  ///< written by a different format version
    kConfigMismatch,   ///< captured under a different machine config
    kCorrupt,          ///< checksum or internal structure check failed
  };
  SnapError(Kind kind, const std::string& what)
      : CheckError(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

const char* to_string(SnapError::Kind k);

/// Header fields readable without decoding the payload.
struct SnapInfo {
  std::uint32_t version = 0;
  std::uint64_t config = 0;
  std::uint64_t schema = 0;
  std::uint64_t steps = 0;
  Nanos virt_ns = 0;
  std::uint64_t payload_bytes = 0;
};

/// Hash of the virtual-time-relevant MachineConfig fields (plus the attached
/// FaultPlan when present). Observer hooks (trace/metrics/check/attr) and
/// watchdog budgets do not contribute: they never change simulated results.
std::uint64_t config_hash(const sim::MachineConfig& cfg);

/// Hash identifying this binary's state-struct schema (stable across runs
/// of one build, changes when the serialized shape changes).
std::uint64_t schema_hash();

/// Serializes a captured state under `cfg`'s identity. Deterministic:
/// identical states and configs produce identical bytes.
std::vector<std::uint8_t> encode(const sim::state::MachineState& s,
                                 const sim::MachineConfig& cfg);

/// Parses and validates a snapshot; throws SnapError on any malformation
/// and on version/config skew against `cfg`.
sim::state::MachineState decode(const std::vector<std::uint8_t>& bytes,
                                const sim::MachineConfig& cfg);

/// Header peek (validates magic/version/length only, not the payload).
SnapInfo peek(const std::vector<std::uint8_t>& bytes);

/// Content hash of a state (config-free): two machines in identical
/// observable states digest equal. The restore-identity harness compares
/// these at the capture cursor.
std::uint64_t digest(const sim::state::MachineState& s);

/// digest(capture(m)) for any state of `m`, mid-run or quiescent, without
/// the capture: the L1/L2 tag and LRU planes (~2.2 MB on the serve presets)
/// are hashed in place instead of copied. The rest of the state is small
/// and exported as capture() exports it.
std::uint64_t digest(const sim::Machine& m);

/// Canonical snapshot name: "snap-" + 16 hex digits of the byte hash.
/// The differ's reports and the fuzz_diff checkpoint ledger name captures by
/// it, so there is exactly one naming convention.
std::string snapshot_id(const std::vector<std::uint8_t>& bytes);

/// Captures a machine's current state (any pause point).
sim::state::MachineState capture(const sim::Machine& m);

}  // namespace capmem::snap
