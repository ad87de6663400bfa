// The simulator's observer seam.
//
// Engine, MemSystem and ChannelPool each hold one nullable, non-owning
// Observer* and report every fact they produce through it exactly once, in
// execution order; null means detached and costs one branch per event site.
// Observers are pure — no RNG draws, no state mutation, no influence on
// scheduling — so attaching any of them leaves virtual-time results and
// snapshot bytes unchanged. Every callback defaults to a no-op. A Machine
// builds one Fanout (sim/fanout.hpp) from MachineConfig::trace/metrics/
// check/attr and attaches it everywhere.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "obs/attr.hpp"
#include "sim/abort.hpp"
#include "sim/address.hpp"
#include "sim/topology.hpp"

namespace capmem::sim {

class MemSystem;
struct LineEntry;
enum class AccessType;
enum class Level;
enum class TileState;

/// One timed access, as reported to Observer::on_access.
struct AccessRecord {
  int tid = -1;
  int core = -1;
  int tile = -1;
  Line line = 0;
  AccessType type{};
  Level level{};            ///< where the access was served
  bool nt = false;          ///< non-temporal store (bypassed the hierarchy)
  bool streaming = false;   ///< part of a pipelined multi-line stream
  Nanos start = 0;          ///< task clock when the access was issued
  Nanos finish = 0;         ///< completion time (AccessResult::finish)
  /// Directory version of the line after the access (0 when untracked).
  std::uint64_t version_after = 0;
};

class Observer {
 public:
  virtual ~Observer() = default;

  // --- scheduler: the Engine, plus spawns from the Machine (which knows the
  // task's tile) and the clock charges of its awaiters ---
  virtual void on_spawn(int /*tid*/, int /*tile*/, Nanos /*t*/) {}
  virtual void on_resume(int /*tid*/, Nanos /*t*/) {}
  virtual void on_park(int /*tid*/, Line /*key*/, Nanos /*t*/) {}
  /// Woken to clock `woken` by a store of `writer` (< 0: unknown).
  virtual void on_unpark(int /*tid*/, Line /*key*/, Nanos /*parked_at*/,
                         Nanos /*woken*/, int /*writer*/) {}
  virtual void on_finish(int /*tid*/, Nanos /*t*/) {}
  /// Waited in the barrier from `arrived` until released at `t` by the
  /// last arriver; on_sync_release follows the whole group.
  virtual void on_sync_wait(int /*tid*/, Nanos /*arrived*/, Nanos /*t*/,
                            int /*releaser*/) {}
  virtual void on_sync_release(Nanos /*t*/, int /*arrivals*/) {}
  /// Before SimAbort is raised; `stuck_tid` is the longest-parked task.
  virtual void on_abort(AbortKind /*kind*/, Nanos /*t*/, int /*stuck_tid*/) {
  }
  /// Task `tid`'s clock moved `from` -> `to`, spent in `cat`.
  virtual void on_charge(int /*tid*/, obs::attr::TimeCat /*cat*/,
                         Nanos /*from*/, Nanos /*to*/) {}

  // --- memory system ---
  /// After every timed access (reads, writes, NT stores, streaming lines),
  /// in store-commit order.
  virtual void on_access(const AccessRecord& /*rec*/) {}
  /// After a directory transition; `entry` is the post-transition state and
  /// `mem` allows cross-structure queries (L1/L2 residency).
  virtual void on_transition(Line /*line*/, const LineEntry& /*entry*/,
                             const MemSystem& /*mem*/) {}
  /// A request issued at `t` resolved to `home_tile`, whose CHA served it
  /// from `start` for `service` ns.
  virtual void on_dir_lookup(int /*tid*/, Line /*line*/, int /*home_tile*/,
                             Nanos /*t*/, Nanos /*start*/,
                             Nanos /*service*/) {}
  /// The request path `req_tile` -> `home_tile` -> `far` -> `req_tile`,
  /// `legs` mesh hops long.
  virtual void on_hops(int /*tid*/, int /*core*/, int /*legs*/, Nanos /*t*/,
                       int /*req_tile*/, int /*home_tile*/, Coord /*far*/) {}
  /// `line`'s copy in `tile` went `from` -> `to`; `why` is a static label
  /// ("invalidate", "upgrade", "downgrade", "share").
  virtual void on_coherence(int /*tid*/, int /*core*/, int /*tile*/,
                            Line /*line*/, TileState /*from*/,
                            TileState /*to*/, Nanos /*t*/,
                            const char* /*why*/) {}
  /// A `pool` channel served a transfer from `start` for `service` ns after
  /// `queue` ns in the controller queue.
  virtual void on_channel_xfer(MemKind /*pool*/, int /*channel*/,
                               Nanos /*start*/, Nanos /*service*/,
                               Nanos /*queue*/) {}
  /// Fault injection: degraded mesh links re-crossed / a sticky CHA entry
  /// re-looked-up.
  virtual void on_link_retry(int /*tid*/, int /*retries*/, Nanos /*t*/) {}
  virtual void on_stuck_dir(int /*tid*/, Line /*line*/, Nanos /*t*/) {}
  /// Untimed maintenance: a harness flush of `line`; a directory entry
  /// dropped (globally invalid, its version restarts at 0).
  virtual void on_flush(Line /*line*/) {}
  virtual void on_drop(Line /*line*/) {}
};

}  // namespace capmem::sim
