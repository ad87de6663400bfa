// Plain-data snapshots of the simulator's observable state.
//
// Every stateful component (Engine, MemSystem and its caches/directory/
// channel pools, AddressSpace) can export its state into the structs below
// and — for the subset that is restorable — import it back. The structs are
// deliberately dumb: no pointers, no handles, deterministic ordering
// (sorted by key wherever the backing container's iteration order is
// unspecified), so that two processes replaying the same schedule export
// byte-identical state and the capmem::snap byte format round-trips stably.
//
// What is captured vs. restorable:
//   * Quiescent machines (engine drained: no live task, empty run queue)
//     are fully restorable — this is the fork/warm-start fast path. A
//     coroutine frame cannot be serialized, so a machine paused mid-run
//     exports its complete observable state (task clocks, run-queue
//     entries, park table, pooled callbacks) for digesting and differential
//     verification, but a mid-run restore goes through deterministic
//     replay-to-cursor plus a byte-compare against the snapshot.
//   * Observability instruments (trace sinks, metrics histograms, the
//     attribution ledger) are NOT state: they observe and never steer, and
//     a restored run rebuilds them from its own events.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace capmem::sim {

/// Per-thread event counters (exposed through Machine for tests and the
/// efficiency analyses, and captured as they are in MemSysState).
/// The classification counters (l1_hits .. mc_cache_misses) partition
/// line_ops: every access increments exactly one of them.
struct ThreadCounters {
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_tile_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t dram_lines = 0;
  std::uint64_t mcdram_lines = 0;
  std::uint64_t mc_cache_hits = 0;
  std::uint64_t mc_cache_misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t line_ops = 0;
};

namespace state {

/// One set-associative cache (an L1 or an L2): the two planes plus the LRU
/// clock. Geometry (sets/ways) is config-derived and checked on import.
struct CacheState {
  std::uint64_t clock = 0;
  std::uint64_t resident = 0;
  std::vector<std::uint64_t> lines;   ///< tag plane, nsets*ways
  std::vector<std::uint64_t> stamps;  ///< LRU plane, 0 = empty way
};

/// One directory entry, keyed by line. The memoized physical target is
/// derived data and deliberately not captured (recomputed on first touch).
struct DirEntryState {
  std::uint64_t line = 0;
  std::uint64_t l2_mask = 0;
  /// Cores holding the line in L1. Derived from the L1 tag planes on export
  /// and checked against them on import; the live directory has no copy.
  std::uint64_t l1_mask = 0;
  std::int32_t owner = -1;
  std::int32_t forward = -1;
  std::uint8_t dirty = 0;
  Nanos service_available = 0;
  Nanos last_write_visible = 0;
  std::uint64_t version = 0;
};

/// One reservation resource (a channel, an issue port, an L2 supply port).
struct ReservationState {
  Nanos available = 0;
  Nanos busy = 0;
};

/// A channel pool: per-channel reservations plus its counters. Rate /
/// lead / fault factors are config-derived and not captured.
struct PoolState {
  std::vector<ReservationState> channels;
  std::uint64_t degraded_transfers = 0;
  /// Final-transfer marker: lexicographic max of (requester clock, queue
  /// delay) over every transfer (see ChannelPool::final_transfer_at). Part
  /// of the CAPSNAP1 bytes, so its form is fixed by the snapshot format.
  Nanos last_queue_ns = 0;
  Nanos last_transfer_at = -1;  ///< -1: no transfer yet
};

/// Memory-side MCDRAM cache: (set, resident line) pairs sorted by set.
struct McdramState {
  std::vector<std::array<std::uint64_t, 2>> tags;
};

/// One run-queue entry in portable form: tasks are named by tid, pooled
/// callbacks by pool index (both process-stable under deterministic
/// replay), never by frame address.
struct QueueEntryState {
  Nanos t = 0;
  std::uint64_t seq = 0;
  std::uint8_t is_callback = 0;
  std::int64_t id = 0;  ///< tid, or callback pool index
};

/// One parked waiter: which task, on which line, parked since when.
struct ParkedWaiterState {
  std::uint64_t key = 0;
  std::int32_t tid = -1;
  Nanos parked_at = 0;
};

/// One spawned task's scheduler-visible state.
struct TaskState {
  Nanos clock = 0;
  std::uint8_t done = 0;
};

struct EngineState {
  Nanos global_time = 0;
  std::uint64_t steps = 0;
  std::uint64_t queue_seq = 0;  ///< next push sequence number
  std::int32_t live = 0;
  std::array<std::uint64_t, 4> rng{};
  std::vector<TaskState> tasks;            ///< indexed by tid
  std::vector<QueueEntryState> queue;      ///< sorted by (t, seq)
  std::vector<ParkedWaiterState> parked;   ///< sorted by (key, park order)
  std::vector<std::int32_t> sync_q;        ///< barrier arrivals, tids
  std::uint64_t live_callbacks = 0;        ///< pool slots holding a callback
};

struct MemSysState {
  std::vector<DirEntryState> directory;  ///< sorted by line
  McdramState mc_cache;
  PoolState dram;
  PoolState mcdram;
  std::vector<CacheState> l1;                 ///< per core
  std::vector<CacheState> l2;                 ///< per tile
  std::vector<ReservationState> core_ports;   ///< per core
  std::vector<ReservationState> l2_supply;    ///< per tile
  std::vector<ThreadCounters> counters;       ///< per tid
  std::uint64_t fault_link_retries = 0;
  std::uint64_t fault_stuck_hits = 0;
};

/// One allocation, including backing bytes for data-carrying buffers.
struct AllocState {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
  std::uint8_t mem_kind = 0;      ///< MemKind
  std::int32_t domain = -1;       ///< -1 = interleave (nullopt)
  std::uint8_t has_data = 0;
  std::string name;
  std::vector<std::uint8_t> data;  ///< empty when !has_data
};

struct SpaceState {
  std::uint64_t next = 0;                   ///< bump-allocator cursor
  std::vector<AllocState> allocs;           ///< sorted by base
};

/// The whole machine. `quiescent` records whether the engine was drained
/// at capture time (no live tasks, empty queue) — the precondition for a
/// direct install.
struct MachineState {
  std::uint8_t quiescent = 0;
  EngineState engine;
  MemSysState mem;
  SpaceState space;
};

}  // namespace state

}  // namespace capmem::sim
