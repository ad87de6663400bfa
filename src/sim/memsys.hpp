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
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/address.hpp"
#include "sim/cache.hpp"
#include "sim/coherence.hpp"
#include "sim/config.hpp"
#include "sim/hooks.hpp"
#include "sim/mcdram_cache.hpp"
#include "sim/mem_map.hpp"
#include "sim/resource.hpp"
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

/// Per-thread event counters (exposed through Machine for tests and the
/// efficiency analyses).
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

class MemSystem {
 public:
  MemSystem(const MachineConfig& cfg, const Topology& topo, Rng& rng);

  /// Timed access to one line by HW thread `tid` running on `core`.
  /// `place` is the placement of the owning allocation. Mutates coherence
  /// state; returns completion time. With observability hooks attached
  /// (MachineConfig::trace / ::metrics) each access additionally emits a
  /// classified kLineAccess trace event and feeds the local instruments —
  /// without them the only extra cost is one branch.
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
  /// per-thread counters, fault counters). The observability histograms
  /// are instruments, not state, and restart empty after an import.
  state::MemSysState export_state() const;
  void import_state(const state::MemSysState& s);

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
  std::uint64_t dir_requests(int home_tile) const {
    return dir_requests_.at(static_cast<std::size_t>(home_tile));
  }
  std::uint64_t noc_hops() const { return noc_hops_total_; }

  /// Merges the hot-path-local instruments (per-channel busy time and
  /// utilization, home-CHA request counts, NoC hop totals, queue-delay
  /// histograms, the ThreadCounters aggregate) into the attached
  /// obs::Registry. Called once by Machine::run(); no-op without a registry.
  void flush_metrics(Nanos elapsed);

  int tile_of_core(int core) const { return topo_->tile_of_core(core); }

  /// Attaches the attribution ledger (null to detach). The memory system
  /// feeds traffic counters (per-level access counts, directional mesh
  /// hops, CHA lookups, coherence transitions); time is charged by the
  /// Machine awaiters that own the task clocks. Must be called before the
  /// first access.
  void set_attr(obs::attr::Ledger* ledger) {
    attr_ = ledger;
    obs_on_ = obs_on_ || attr_ != nullptr;
    tapped_ = tapped_ || attr_ != nullptr;
  }

 private:
  // Cost helpers. `legs` is the mesh path length in hops.
  Nanos jitter(Nanos v, bool allow_spike = true);
  /// Per-line memoized map_.target() (see LineEntry::target).
  const MemTarget& target_of(LineEntry& e, Line line, const Placement& place);
  int mesh_legs(int req_tile, int home_tile, Coord far_stop) const;
  int mesh_legs_tiles(int req_tile, int home_tile, int owner_tile) const;

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

  // State maintenance.
  // `h` is `e`'s directory handle; the L1 keeps it beside the tag.
  void fill_caches(int core, int tile, Line line, LineEntry& e, DirHandle h);
  void evict_l2_victim(int tile, Line victim, Nanos now);
  void invalidate_others(LineEntry& e, Line line, int keep_tile, int tid,
                         Nanos now);
  void l1_insert(int core, Line line, LineEntry& e, DirHandle h);

  // Validation taps (called only when check_ attached).
  void note_transition(Line line, const LineEntry& e) {
    if (check_ != nullptr) check_->on_transition(line, e, *this);
  }
  void note_check_access(int tid, int core, Line line, AccessType type,
                         const AccessOpts& opts, const AccessResult& res,
                         Nanos now);

  // Observability taps (called only when obs_on_).
  void note_access(int tid, int core, Line line, AccessType type,
                   const AccessResult& res, Nanos now);
  void note_dir_lookup(int tid, Line line, int home_tile, Nanos now,
                       Nanos svc_start, Nanos service);
  /// `req_tile` -> `home_tile` -> `far_stop` -> `req_tile` is the request
  /// path whose hop count is `legs`; the endpoints let the attribution
  /// ledger split the hops by ring direction (vertical/horizontal).
  void note_hops(int tid, int core, int legs, Nanos now, int req_tile,
                 int home_tile, Coord far_stop);
  void note_coherence(int tid, int core, int tile, Line line, TileState from,
                      TileState to, Nanos now, const char* label);

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

  // Observability state. The hot-path instruments are component-local and
  // allocation-free (plain counters, fixed Log2Hists); flush_metrics()
  // merges them into the shared registry once per run.
  obs::TraceSink* trace_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  obs::attr::Ledger* attr_ = nullptr;
  CheckHook* check_ = nullptr;
  bool obs_on_ = false;
  bool tapped_ = false;  ///< obs_on_ || check_ attached (hot-path gate)

  // Fault-injection state (all empty/false without a FaultPlan; the healthy
  // hot path pays one vector-emptiness / bool branch per guarded site).
  const fault::FaultPlan* fault_ = nullptr;
  std::vector<std::uint8_t> fault_mesh_;  ///< per-tile degraded endpoints
  bool fault_stuck_ = false;
  std::uint64_t fault_link_retries_ = 0;
  std::uint64_t fault_stuck_hits_ = 0;
  std::vector<std::uint64_t> dir_requests_;  // per home tile
  std::uint64_t noc_hops_total_ = 0;
  obs::Log2Hist cha_queue_;                  // directory queueing delays
  std::vector<obs::Log2Hist> queue_delay_;   // per tid, channel queue delays
};

}  // namespace capmem::sim
