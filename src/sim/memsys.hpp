// The memory system: every timed memory operation goes through here.
//
// Given (thread, line, read/write, options, virtual time), this module
//   1. walks the cache hierarchy (per-core L1, per-tile L2),
//   2. performs the MESIF directory transition,
//   3. reserves contended resources (per-line CHA service, per-core issue
//      ports, memory channels, memory-side MCDRAM cache in cache mode),
//   4. returns the completion time plus a breakdown of where the line came
//      from.
//
// Single-line ("latency") operations pay the full round-trip; streaming
// operations (multi-line copies, STREAM kernels) pay a pipelined per-line
// issue cost bounded below by the resource reservations, which is what makes
// bandwidth saturate at the channel rates while a single thread stays
// latency/MLP-bound (paper §V.A, Fig. 9).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/attr.hpp"
#include "sim/address.hpp"
#include "sim/cache.hpp"
#include "sim/coherence.hpp"
#include "sim/config.hpp"
#include "sim/mcdram_cache.hpp"
#include "sim/mem_map.hpp"
#include "sim/resource.hpp"
#include "sim/state.hpp"
#include "sim/topology.hpp"

namespace capmem::sim {

/// Where a request was satisfied.
enum class Level {
  kL1,
  kL2Tile,      ///< own tile's L2 (possibly the other core's data)
  kRemoteL2,    ///< another tile's L2 via the directory
  kDram,
  kMcdram,
  kMcdramCacheHit,   ///< cache mode: hit in the memory-side cache
  kMcdramCacheMiss,  ///< cache mode: miss, served from DDR + fill
};
const char* to_string(Level level);

enum class AccessType { kRead, kWrite };

struct AccessOpts {
  bool vector = true;     ///< AVX-512-style access (higher MLP)
  bool nt = false;        ///< non-temporal hint: bypass caches, no RFO
  bool streaming = false; ///< part of a pipelined multi-line operation
  bool copy_pair = false; ///< streaming read that feeds a paired store
  bool polling = false;   ///< spin-poll read (repeated; L1-hit when cached)
};

struct AccessResult {
  Nanos finish = 0;       ///< completion time of this line
  Level level = Level::kL1;
  TileState prior = TileState::kI;  ///< state at the serving location
};

/// Attribution category of the level that served an access (the time a
/// task spends in the access is charged there by the Machine awaiters).
inline obs::attr::TimeCat attr_cat(Level level) {
  switch (level) {
    case Level::kL1: return obs::attr::TimeCat::kL1;
    case Level::kL2Tile: return obs::attr::TimeCat::kL2Tile;
    case Level::kRemoteL2: return obs::attr::TimeCat::kRemoteL2;
    case Level::kDram: return obs::attr::TimeCat::kDram;
    case Level::kMcdram: return obs::attr::TimeCat::kMcdram;
    case Level::kMcdramCacheHit: return obs::attr::TimeCat::kMcCacheHit;
    case Level::kMcdramCacheMiss: return obs::attr::TimeCat::kMcCacheMiss;
  }
  return obs::attr::TimeCat::kUnattributed;
}

class MemSystem {
 public:
  /// `obs` (nullable, non-owning) observes every access, directory lookup
  /// and transition, mesh traversal, coherence change and channel transfer
  /// (sim/observer.hpp); null detaches.
  MemSystem(const MachineConfig& cfg, const Topology& topo, Rng& rng,
            Observer* obs = nullptr);

  /// Timed access to one line by HW thread `tid` running on `core`.
  /// `place` is the placement of the owning allocation. Mutates coherence
  /// state; returns completion time. With an observer attached, each access
  /// ends with one Observer::on_access (level, start/finish, directory
  /// version) after the events of its transition; detached, the only extra
  /// cost is one branch.
  AccessResult access(int tid, int core, Line line, const Placement& place,
                      AccessType type, const AccessOpts& opts, Nanos now);

  /// Untimed full flush of a line: drops it from every cache and the
  /// directory (and optionally the MCDRAM cache). Harness primitive used
  /// to reset cache state between benchmark iterations.
  void flush_line(Line line, bool drop_mcdram_cache = true);

  /// Untimed reset of all caches/directory/resources (between experiments).
  void reset();

  /// Checkpoint support (capmem::snap): the complete virtual-time-relevant
  /// state (directory, caches, MCDRAM cache, channel/port reservations,
  /// per-thread counters, fault counters). With `with_cache_planes` false
  /// the L1/L2 planes are left out (`l1`/`l2` empty) — the live snapshot
  /// digest reads them in place through l1_caches()/l2_caches().
  state::MemSysState export_state(bool with_cache_planes = true) const;

  const ThreadCounters& counters(int tid) const { return counters_.at(tid); }
  void clear_counters();

  const Directory& directory() const { return dir_; }
  TileState state_in_tile(Line line, int tile) const {
    return dir_.state_in_tile(line, tile);
  }

  // --- cross-structure queries (capmem::check invariant sweeps) ---
  bool line_in_l1(int core, Line line) const {
    return l1_.at(static_cast<std::size_t>(core)).contains(line);
  }
  bool line_in_l2(int tile, Line line) const {
    return l2_.at(static_cast<std::size_t>(tile)).contains(line);
  }
  const SetAssocCache& l1_cache(int core) const {
    return l1_.at(static_cast<std::size_t>(core));
  }
  const SetAssocCache& l2_cache(int tile) const {
    return l2_.at(static_cast<std::size_t>(tile));
  }
  const std::vector<SetAssocCache>& l1_caches() const { return l1_; }
  const std::vector<SetAssocCache>& l2_caches() const { return l2_; }
  const MemMap& mem_map() const { return map_; }

  /// Aggregate bytes of DRAM / MCDRAM channel traffic so far.
  double dram_busy_ns() const;
  double mcdram_busy_ns() const;

  // --- observability accessors (Machine re-exports these) ---
  const ChannelPool& dram_pool() const { return dram_; }
  const ChannelPool& mcdram_pool() const { return mcdram_; }
  Nanos core_issue_busy(int core) const {
    return core_ports_.at(static_cast<std::size_t>(core)).busy();
  }
  Nanos l2_supply_busy(int tile) const {
    return l2_supply_.at(static_cast<std::size_t>(tile)).busy();
  }
  /// Fault-injection tallies: degraded mesh-link re-crossings and sticky
  /// CHA re-lookups so far.
  std::uint64_t fault_link_retries() const { return fault_link_retries_; }
  std::uint64_t fault_stuck_hits() const { return fault_stuck_hits_; }

  int tile_of_core(int core) const { return topo_->tile_of_core(core); }

 private:
  // Cost helpers. `legs` is the mesh path length in hops.
  Nanos jitter(Nanos v, bool allow_spike = true);
  /// Per-line memoized map_.target() (see LineEntry::target).
  const MemTarget& target_of(LineEntry& e, Line line, const Placement& place);
  int mesh_legs(int req_tile, int home_tile, Coord far_stop) const;
  int mesh_legs_tiles(int req_tile, int home_tile, int owner_tile) const;
  /// MCDRAM channel of `line`'s memory-side cache slot (cache/hybrid mode).
  int mc_channel(Line line) const {
    return static_cast<int>(line % static_cast<Line>(mcdram_.size()));
  }

  Nanos remote_transfer_cost(TileState owner_state, int legs);
  /// Protocol dispatch: one switch on the construction-time protocol_, into
  /// the per-policy instantiation below. The policies are compile-time
  /// structs private to memsys.cpp, so every protocol-variant point is an
  /// `if constexpr` and the hot path stays devirtualized — the MESIF
  /// instantiation is the exact pre-refactor transition code.
  AccessResult access_impl(int tid, int core, Line line,
                           const Placement& place, AccessType type,
                           const AccessOpts& opts, Nanos now);
  template <class Policy>
  AccessResult access_impl_p(int tid, int core, Line line,
                             const Placement& place, AccessType type,
                             const AccessOpts& opts, Nanos now);
  AccessResult memory_access(int tid, int core, Line line,
                             const MemTarget& target, AccessType type,
                             const AccessOpts& opts, Nanos now,
                             int req_tile);

  // State maintenance. The L1 tag arrays are the only record of L1
  // residency: the directory tracks L2 sharers, and a tile's L1 copies of a
  // line are dropped by erasing it from each of its cores' L1s.
  void fill_caches(int core, int tile, Line line, LineEntry& e);
  void evict_l2_victim(int tile, Line victim, Nanos now);
  void invalidate_others(LineEntry& e, Line line, int keep_tile, int tid,
                         Nanos now);
  void l1_insert(int core, Line line);
  /// Erases `line` from the L1 of every core of `tile` except `keep_core`
  /// (-1: none kept). Erasing a non-resident line is a no-op.
  void drop_l1_copies(int tile, Line line, int keep_core);

  // Fault-injection tap: additive penalty for a mesh path whose endpoint
  // tiles (`c` < 0 when the path has only two) include degraded ones.
  // Callers guard with `!fault_mesh_.empty()`.
  Nanos fault_path_penalty(int tid, Nanos now, int a, int b, int c = -1);

  // Streaming issue occupancy for a line served at `level`.
  Nanos stream_issue_cost(Level level, TileState prior, AccessType type,
                          const AccessOpts& opts) const;
  // Reserve the core's issue ports; returns completion of the issue slot.
  Nanos core_issue(int core, Nanos now, Nanos occupancy);
  // Reserve the source tile's L2 supply port for one c2c line; returns the
  // time the line has been served.
  Nanos l2_supply(int src_tile, Nanos at);

  const MachineConfig* cfg_;
  const Topology* topo_;
  Rng* rng_;
  Protocol protocol_ = Protocol::kMesif;
  MemMap map_;
  Directory dir_;
  McdramCache mc_cache_;
  ChannelPool dram_;
  ChannelPool mcdram_;
  std::vector<SetAssocCache> l1_;          // per core
  std::vector<SetAssocCache> l2_;          // per tile
  std::vector<Reservation> core_ports_;    // per core
  std::vector<Reservation> l2_supply_;     // per tile: c2c source bandwidth
  std::vector<ThreadCounters> counters_;   // per tid (grown on demand)
  double extra_sigma_ = 0.0;               // SNC2 experimental-mode variance
  Observer* obs_ = nullptr;                // null: detached

  // Fault-injection state (all empty/false without a FaultPlan; the healthy
  // hot path pays one vector-emptiness / bool branch per guarded site).
  const fault::FaultPlan* fault_ = nullptr;
  std::vector<std::uint8_t> fault_mesh_;  ///< per-tile degraded endpoints
  bool fault_stuck_ = false;
  std::uint64_t fault_link_retries_ = 0;
  std::uint64_t fault_stuck_hits_ = 0;
};

}  // namespace capmem::sim
