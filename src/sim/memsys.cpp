#include "sim/memsys.hpp"

#include <algorithm>
#include <string>

#include "fault/plan.hpp"
#include "sim/mutation.hpp"

namespace capmem::sim {

namespace {

// Compile-time protocol policies. The transition pipeline (access_impl_p)
// is one template over these; the variant points are `if constexpr` on the
// flags, so each instantiation is a straight-line protocol with no runtime
// protocol branches. MESIF compiles to the exact pre-refactor code (same
// statements, same RNG-draw order), preserving byte-identical transcripts.
struct MesifPolicy {
  static constexpr Protocol kProtocol = Protocol::kMesif;
  static constexpr bool kHasForward = true;    // F among the sharers
  static constexpr bool kHasExclusive = true;  // clean sole copy installs E
  static constexpr bool kDirtyShared = false;  // owned => only cached copy
};

struct MesiPolicy {
  static constexpr Protocol kProtocol = Protocol::kMesi;
  static constexpr bool kHasForward = false;  // shared reads go to memory
  static constexpr bool kHasExclusive = true;
  static constexpr bool kDirtyShared = false;
};

struct MosiPolicy {
  static constexpr Protocol kProtocol = Protocol::kMosi;
  static constexpr bool kHasForward = false;
  static constexpr bool kHasExclusive = false;  // read misses install S
  static constexpr bool kDirtyShared = true;    // O: dirty owner + sharers
};

// Per-transition directory check against the policy's legal-state table.
// MESIF keeps the original single-table fast path.
template <class P>
inline void check_entry_p(const LineEntry& e) {
  if constexpr (P::kProtocol == Protocol::kMesif) {
    Directory::check_entry(e);
  } else {
    Directory::check_entry(e, rules_of(P::kProtocol));
  }
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kL1: return "L1";
    case Level::kL2Tile: return "L2-tile";
    case Level::kRemoteL2: return "remote-L2";
    case Level::kDram: return "DRAM";
    case Level::kMcdram: return "MCDRAM";
    case Level::kMcdramCacheHit: return "MC$-hit";
    case Level::kMcdramCacheMiss: return "MC$-miss";
  }
  return "?";
}

MemSystem::MemSystem(const MachineConfig& cfg, const Topology& topo, Rng& rng)
    : cfg_(&cfg),
      topo_(&topo),
      rng_(&rng),
      map_(cfg, topo),
      mc_cache_(cfg.memory == MemoryMode::kCache
                    ? cfg.mcdram_bytes
                    : cfg.memory == MemoryMode::kHybrid
                          ? static_cast<std::uint64_t>(
                                static_cast<double>(cfg.mcdram_bytes) *
                                cfg.hybrid_cache_fraction)
                          : 0),
      dram_(cfg.dram_channels(), cfg.bw.dram_channel_gbps,
            cfg.bw.channel_queue_lines * kLineBytes /
                cfg.bw.dram_channel_gbps),
      mcdram_(cfg.mcdram_controllers, cfg.bw.mcdram_channel_gbps,
              cfg.bw.channel_queue_lines * kLineBytes /
                  cfg.bw.mcdram_channel_gbps) {
  protocol_ = cfg.protocol;
  dir_.set_rules(rules_of(cfg.protocol));
  for (int c = 0; c < cfg.cores(); ++c)
    l1_.emplace_back(cfg.l1_bytes, cfg.l1_ways);
  for (int t = 0; t < cfg.active_tiles; ++t)
    l2_.emplace_back(cfg.l2_bytes, cfg.l2_ways);
  core_ports_.resize(static_cast<std::size_t>(cfg.cores()));
  l2_supply_.resize(static_cast<std::size_t>(cfg.active_tiles));
  counters_.resize(static_cast<std::size_t>(cfg.hw_threads()));
  if (cfg.cluster == ClusterMode::kSNC2)
    extra_sigma_ = cfg.noise.snc2_extra_sigma;
  trace_ = cfg.trace;
  metrics_ = cfg.metrics;
  check_ = cfg.check;
  obs_on_ = trace_ != nullptr || metrics_ != nullptr;
  tapped_ = obs_on_ || check_ != nullptr;
  dir_requests_.resize(static_cast<std::size_t>(cfg.active_tiles), 0);
  if (obs_on_) {
    queue_delay_.resize(static_cast<std::size_t>(cfg.hw_threads()));
    if (trace_ != nullptr) {
      dram_.set_obs(trace_, "dram");
      mcdram_.set_obs(trace_, "mcdram");
    }
  }
  fault_ = cfg.fault;
  if (fault_ != nullptr) {
    if (fault_->mesh_enabled()) {
      fault_mesh_ = fault_->degraded_tile_mask(cfg.active_tiles);
    }
    if (fault_->channels_enabled()) {
      dram_.set_fault_factors(fault_->channel_factors(dram_.size(), false));
      mcdram_.set_fault_factors(
          fault_->channel_factors(mcdram_.size(), true));
    }
    fault_stuck_ = fault_->stuck_enabled();
  }
}

Nanos MemSystem::fault_path_penalty(int tid, Nanos now, int a, int b,
                                    int c) {
  int retries = 0;
  retries += fault_mesh_[static_cast<std::size_t>(a)];
  retries += fault_mesh_[static_cast<std::size_t>(b)];
  if (c >= 0) retries += fault_mesh_[static_cast<std::size_t>(c)];
  if (retries == 0) return 0;
  fault_link_retries_ += static_cast<std::uint64_t>(retries);
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kFaultRetry;
    e.t = now;
    e.tid = tid;
    e.a = retries;
    e.label = "mesh-link";
    trace_->on_event(e);
  }
  return fault_->link_retry_ns * retries;
}

Nanos MemSystem::jitter(Nanos v, bool allow_spike) {
  if (!cfg_->noise.enabled) return v;
  const auto& n = cfg_->noise;
  Nanos out = v * rng_->lognormal_factor(n.service_sigma + extra_sigma_);
  // Directory-retry spikes model rare latency outliers. They are only
  // applied to single-line (latency) operations: injecting them into
  // pipelined streams would punch unfillable holes into the FIFO channel
  // reservations and artificially halve saturated bandwidth.
  if (allow_spike && rng_->next_double() < n.spike_prob) out += n.spike_ns;
  return out;
}

int MemSystem::mesh_legs(int req_tile, int home_tile, Coord far_stop) const {
  const Coord rq = topo_->tile_coord(req_tile);
  const Coord hm = topo_->tile_coord(home_tile);
  return topo_->hops(rq, hm) + topo_->hops(hm, far_stop) +
         topo_->hops(far_stop, rq);
}

int MemSystem::mesh_legs_tiles(int req_tile, int home_tile,
                               int owner_tile) const {
  return mesh_legs(req_tile, home_tile, topo_->tile_coord(owner_tile));
}

Nanos MemSystem::remote_transfer_cost(TileState owner_state, int legs) {
  const auto& lt = cfg_->lat;
  double state_adder = lt.remote_state_sf;
  if (owner_state == TileState::kM) state_adder = lt.remote_state_m;
  // MOSI's O serves like M: the owner holds the only up-to-date (dirty) copy.
  if (owner_state == TileState::kO) state_adder = lt.remote_state_m;
  if (owner_state == TileState::kE) state_adder = lt.remote_state_e;
  return jitter(lt.remote_base + state_adder + lt.hop * legs);
}

Nanos MemSystem::stream_issue_cost(Level level, TileState prior,
                                   AccessType type,
                                   const AccessOpts& opts) const {
  const auto& bw = cfg_->bw;
  const auto& lt = cfg_->lat;
  const double line = static_cast<double>(kLineBytes);
  if (type == AccessType::kWrite) {
    // Local store streams occupy a store port; memory-destined write
    // streams are RFO/latency-bound like reads (the visible-bandwidth
    // halving comes from the doubled channel traffic).
    switch (level) {
      case Level::kL1: return 2.0;
      case Level::kL2Tile:
      case Level::kRemoteL2: return 2.5;
      default: break;  // memory levels fall through to the read costs
    }
  }
  switch (level) {
    case Level::kL1:
      return line / (opts.vector ? 20.0 : 10.0);
    case Level::kL2Tile: {
      // Calibrated so a copy pair (read + local write) lands at the Table I
      // intra-tile copy bandwidths: E ~9.2 GB/s, M ~7.5 GB/s.
      const double base =
          prior == TileState::kM || prior == TileState::kO
              ? bw.tile_copy_line_m - 2.0
              : bw.tile_copy_line_e - 2.0;
      return opts.vector ? base : base * 1.5;
    }
    case Level::kRemoteL2: {
      const double lat = lt.remote_base;
      const double mlp = opts.copy_pair
                             ? (opts.vector ? bw.mlp_c2c_copy_vector
                                            : bw.mlp_c2c_copy_scalar)
                             : (opts.vector ? bw.mlp_c2c_read_vector
                                            : bw.mlp_c2c_read_scalar);
      return lat / mlp;
    }
    case Level::kDram:
    case Level::kMcdramCacheMiss: {
      const double mlp =
          opts.vector ? bw.mlp_mem_vector : bw.mlp_mem_scalar;
      return (lt.dram_service + (level == Level::kMcdramCacheMiss
                                     ? lt.mc_cache_tag
                                     : 0.0)) /
             mlp;
    }
    case Level::kMcdram:
    case Level::kMcdramCacheHit: {
      const double mlp =
          opts.vector ? bw.mlp_mem_vector : bw.mlp_mem_scalar;
      return (lt.mcdram_service + (level == Level::kMcdramCacheHit
                                       ? lt.mc_cache_tag
                                       : 0.0)) /
             mlp;
    }
  }
  return 10.0;
}

const MemTarget& MemSystem::target_of(LineEntry& e, Line line,
                                      const Placement& place) {
  if (!e.target_valid) {
    e.target = map_.target(line, place);
    e.target_valid = true;
  }
  return e.target;
}

Nanos MemSystem::l2_supply(int src_tile, Nanos at) {
  Reservation& port = l2_supply_[static_cast<std::size_t>(src_tile)];
  const Nanos service = cfg_->bw.l2_supply_line_ns;
  return port.acquire(at, service) + service;
}

Nanos MemSystem::core_issue(int core, Nanos now, Nanos occupancy) {
  Reservation& port = core_ports_[static_cast<std::size_t>(core)];
  const Nanos start =
      port.acquire(now, occupancy * cfg_->bw.core_issue_fraction);
  return start + occupancy;
}

void MemSystem::l1_insert(int core, Line line, LineEntry& e, DirHandle h) {
  SetAssocCache& l1 = l1_[static_cast<std::size_t>(core)];
  if (l1.contains(line)) return;
  DirHandle victim = Directory::kNoEntry;
  const auto evicted = l1.insert(line, h, victim);
  e.l1_mask |= 1ull << core;
  // An L1-resident line always has a live entry with this core's bit set
  // (every path that clears the bit also erases the L1 tag), so the victim's
  // handle is live: clear its bit without a directory probe.
  if (evicted) dir_.at(victim).l1_mask &= ~(1ull << core);
}

void MemSystem::evict_l2_victim(int tile, Line victim, Nanos now) {
  LineEntry* ve = dir_.find(victim);
  if (ve == nullptr) return;
  // Drop the victim from the L1s of this tile's cores (inclusive hierarchy).
  for (int c = topo_->first_core_of_tile(tile);
       c < topo_->first_core_of_tile(tile) + cfg_->cores_per_tile; ++c) {
    if ((ve->l1_mask >> c) & 1ull) {
      l1_[static_cast<std::size_t>(c)].erase(victim);
      ve->l1_mask &= ~(1ull << c);
    }
  }
  ve->l2_mask &= ~(1ull << tile);
  if (ve->forward == tile) ve->forward = -1;
  if (ve->owner == tile) {
    if (ve->dirty) {
      // Write-back traffic; in cache/hybrid mode modified lines land in the
      // memory-side MCDRAM cache (it is inclusive of modified L2 lines).
      if (mc_cache_.enabled()) {
        mc_cache_.write_back(victim);
        mcdram_.transfer(static_cast<int>(victim) %
                             mcdram_.size(),
                         now, static_cast<double>(kLineBytes));
      } else {
        dram_.transfer(static_cast<int>(victim % static_cast<Line>(
                                            dram_.size())),
                       now, static_cast<double>(kLineBytes));
      }
    }
    ve->owner = -1;
    ve->dirty = false;
  }
  // Drop through the entry already in hand: one erase probe, no re-find.
  if (ve->anywhere()) {
    if (check_ != nullptr) check_->on_transition(victim, *ve, *this);
  } else {
    dir_.drop(victim);
    if (check_ != nullptr) check_->on_drop(victim);
  }
}

void MemSystem::fill_caches(int core, int tile, Line line, LineEntry& e,
                            DirHandle h) {
  if (!l2_[static_cast<std::size_t>(tile)].contains(line)) {
    const auto evicted = l2_[static_cast<std::size_t>(tile)].insert(line);
    e.l2_mask |= 1ull << tile;
    if (evicted) evict_l2_victim(tile, *evicted, 0.0);
  }
  l1_insert(core, line, e, h);
}

void MemSystem::invalidate_others(LineEntry& e, Line line, int keep_tile,
                                  int tid, Nanos now) {
  bool stale_injected = false;
  // Walk only the set sharer bits (ascending, same order as a full tile
  // scan); the mask never has bits at or above active_tiles().
  std::uint64_t pending = e.l2_mask;
  if (keep_tile >= 0) pending &= ~(1ull << keep_tile);
  while (pending != 0) {
    const int t = __builtin_ctzll(pending);
    pending &= pending - 1;
    if (obs_on_) {
      note_coherence(tid, -1, t, line, Directory::state_in_tile(e, t),
                     TileState::kI, now, "invalidate");
    }
    if (mutation::is(mutation::Kind::kStaleL2Copy) && !stale_injected) {
      // Fault injection (mutation-smoke builds only): leave the victim's
      // L2 tag resident while the directory forgets the sharer.
      stale_injected = true;
    } else {
      l2_[static_cast<std::size_t>(t)].erase(line);
    }
    e.l2_mask &= ~(1ull << t);
    for (int c = topo_->first_core_of_tile(t);
         c < topo_->first_core_of_tile(t) + cfg_->cores_per_tile; ++c) {
      if ((e.l1_mask >> c) & 1ull) {
        l1_[static_cast<std::size_t>(c)].erase(line);
        e.l1_mask &= ~(1ull << c);
      }
    }
    counters_[static_cast<std::size_t>(tid)].invalidations++;
  }
  // L1 copies in the keep tile held by *other* cores are invalidated by the
  // caller when needed (intra-tile write).
  if (e.forward != -1 && e.forward != keep_tile) e.forward = -1;
  if (e.owner != -1 && e.owner != keep_tile) {
    e.owner = -1;
    e.dirty = false;
  }
}

AccessResult MemSystem::memory_access(int tid, int core, Line line,
                                      const MemTarget& target,
                                      AccessType type, const AccessOpts& opts,
                                      Nanos now, int req_tile) {
  auto& ctr = counters_[static_cast<std::size_t>(tid)];
  const auto& lt = cfg_->lat;
  const int legs = mesh_legs(req_tile, target.home_tile, target.mem_stop);
  const Nanos path = lt.hop * legs;
  if (obs_on_) {
    note_hops(tid, core, legs, now, req_tile, target.home_tile,
              target.mem_stop);
  }
  const Nanos fpen =
      fault_mesh_.empty()
          ? 0
          : fault_path_penalty(tid, now, req_tile, target.home_tile);

  AccessResult res;
  const bool rfo = type == AccessType::kWrite && !opts.nt;
  // Write traffic: RFO adds the fill read; pure store streams additionally
  // pay the write-turnaround occupancy (mixed read+write streams, flagged
  // via copy_pair, amortize it away).
  double traffic_factor = 1.0;
  if (type == AccessType::kWrite) {
    traffic_factor = opts.copy_pair ? 1.0 : cfg_->bw.write_turnaround;
    if (rfo) traffic_factor += 1.0;
  }
  const double traffic = static_cast<double>(kLineBytes) * traffic_factor;

  Nanos service = 0;
  Nanos channel_done = now;
  if (target.kind == MemKind::kMCDRAM) {
    res.level = Level::kMcdram;
    service = lt.mcdram_service;
    channel_done = mcdram_.transfer(target.channel, now, traffic);
    ctr.mcdram_lines++;
  } else if (!mc_cache_.enabled()) {
    res.level = Level::kDram;
    service = lt.dram_service;
    channel_done = dram_.transfer(target.channel, now, traffic);
    ctr.dram_lines++;
  } else {
    // Cache mode: the memory-side MCDRAM cache fronts the DDR path.
    const auto mc = mc_cache_.access(line);
    if (mc.hit) {
      res.level = Level::kMcdramCacheHit;
      service = lt.mcdram_service;
      // Through the memory-side cache, store streams are controller-paced
      // (no DDR write-turnaround): charge the un-inflated line traffic.
      const double mc_traffic =
          static_cast<double>(kLineBytes) * (rfo ? 2.0 : 1.0);
      channel_done =
          mcdram_.transfer(static_cast<int>(line) % mcdram_.size(), now,
                           mc_traffic, cfg_->bw.mc_cache_bw_factor);
      if (type == AccessType::kWrite) {
        // Dirtied cache lines are eventually written back to DDR; charge
        // that traffic now so write streams stay DDR-bound in cache mode
        // (Table II: cache-mode write 56-72 GB/s vs flat MCDRAM 147-171).
        channel_done = std::max(
            channel_done, dram_.transfer(target.channel, now,
                                         static_cast<double>(kLineBytes)));
      }
      ctr.mc_cache_hits++;
    } else {
      res.level = Level::kMcdramCacheMiss;
      service = lt.dram_service + lt.mc_cache_tag;
      // DDR supplies the data; the line is filled into MCDRAM
      // simultaneously (paper §II.C), consuming both channels.
      channel_done = dram_.transfer(target.channel, now, traffic);
      mcdram_.transfer(static_cast<int>(line) % mcdram_.size(), now,
                       static_cast<double>(kLineBytes),
                       cfg_->bw.mc_cache_bw_factor);
      ctr.mc_cache_misses++;
      if (mc.evicted) {
        // Before eviction, a snoop checks for a modified L2 copy.
        const LineEntry* ev = dir_.find(*mc.evicted);
        if (ev != nullptr && ev->dirty) service += lt.mc_cache_evict_snoop;
      }
      // The DDR access is accounted by mc_cache_misses; dram_lines counts
      // only flat-mode DDR service so the per-level counters partition
      // line_ops exactly.
    }
  }

  if (opts.streaming) {
    const Nanos issue = stream_issue_cost(res.level, TileState::kI, type,
                                          opts);
    const Nanos core_done = core_issue(core, now, issue);
    res.finish =
        std::max({now + jitter(issue, false), core_done, channel_done});
  } else {
    const Nanos core_done = core_issue(core, now, 1.0);
    res.finish =
        std::max({now + jitter(path + service), core_done, channel_done});
  }
  res.finish += fpen;
  res.prior = TileState::kI;
  return res;
}

AccessResult MemSystem::access(int tid, int core, Line line,
                               const Placement& place, AccessType type,
                               const AccessOpts& opts, Nanos now) {
  // The disabled observability/checker path is this single branch:
  // access_impl is the exact pre-obs access body, so default runs stay
  // byte-identical.
  if (!tapped_) return access_impl(tid, core, line, place, type, opts, now);
  const AccessResult res =
      access_impl(tid, core, line, place, type, opts, now);
  if (obs_on_) note_access(tid, core, line, type, res, now);
  if (check_ != nullptr) {
    note_check_access(tid, core, line, type, opts, res, now);
  }
  return res;
}

void MemSystem::note_check_access(int tid, int core, Line line,
                                  AccessType type, const AccessOpts& opts,
                                  const AccessResult& res, Nanos now) {
  AccessRecord rec;
  rec.tid = tid;
  rec.core = core;
  rec.tile = topo_->tile_of_core(core);
  rec.line = line;
  rec.type = type;
  rec.nt = opts.nt;
  rec.streaming = opts.streaming;
  rec.start = now;
  rec.finish = res.finish;
  const LineEntry* e = dir_.find(line);
  rec.version_after = e != nullptr ? e->version : 0;
  check_->on_access(rec);
}

void MemSystem::note_access(int tid, int core, Line line, AccessType type,
                            const AccessResult& res, Nanos now) {
  if (attr_ != nullptr) {
    attr_->count_access(topo_->tile_of_core(core), attr_cat(res.level));
  }
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kLineAccess;
    e.t = now;
    e.dur = res.finish - now;
    e.tid = tid;
    e.core = core;
    e.tile = topo_->tile_of_core(core);
    e.line = line;
    e.label = to_string(res.level);
    trace_->on_event(e);
  }
  // Per-thread channel queue delay of memory-served accesses (the pools
  // remember the queueing component of their most recent transfer).
  if (!queue_delay_.empty()) {
    switch (res.level) {
      case Level::kDram:
      case Level::kMcdramCacheMiss:
        queue_delay_[static_cast<std::size_t>(tid)].record(
            dram_.last_queue_ns());
        break;
      case Level::kMcdram:
      case Level::kMcdramCacheHit:
        queue_delay_[static_cast<std::size_t>(tid)].record(
            mcdram_.last_queue_ns());
        break;
      default:
        break;
    }
  }
  (void)type;
}

void MemSystem::note_dir_lookup(int tid, Line line, int home_tile, Nanos now,
                                Nanos svc_start, Nanos service) {
  dir_requests_[static_cast<std::size_t>(home_tile)]++;
  cha_queue_.record(svc_start - now);
  if (attr_ != nullptr) {
    attr_->add_dir_lookup(home_tile, svc_start - now, service);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kDirLookup;
    e.t = svc_start;
    e.dur = service;
    e.tid = tid;
    e.line = line;
    e.a = home_tile;
    e.queue_ns = svc_start - now;
    trace_->on_event(e);
  }
}

void MemSystem::note_hops(int tid, int core, int legs, Nanos now,
                          int req_tile, int home_tile, Coord far_stop) {
  noc_hops_total_ += static_cast<std::uint64_t>(legs);
  if (attr_ != nullptr) {
    // Split the request triangle's Manhattan hops by ring direction
    // (KNL's mesh routes Y-then-X; |dr| legs ride the vertical rings).
    const Coord rq = topo_->tile_coord(req_tile);
    const Coord hm = topo_->tile_coord(home_tile);
    const auto d = [](int a, int b) { return a > b ? a - b : b - a; };
    const int vertical = d(hm.row, rq.row) + d(far_stop.row, hm.row) +
                         d(rq.row, far_stop.row);
    const int horizontal = d(hm.col, rq.col) + d(far_stop.col, hm.col) +
                           d(rq.col, far_stop.col);
    attr_->add_hops(req_tile, vertical, horizontal);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kNocHops;
    e.t = now;
    e.tid = tid;
    e.core = core;
    e.a = legs;
    trace_->on_event(e);
  }
}

void MemSystem::note_coherence(int tid, int core, int tile, Line line,
                               TileState from, TileState to, Nanos now,
                               const char* label) {
  if (attr_ != nullptr) {
    attr_->add_transition(static_cast<int>(from), static_cast<int>(to),
                          label);
  }
  if (trace_ == nullptr) return;
  obs::TraceEvent e;
  e.kind = obs::EventKind::kCoherence;
  e.t = now;
  e.tid = tid;
  e.core = core;
  e.tile = tile;
  e.line = line;
  e.a = static_cast<int>(from);
  e.b = static_cast<int>(to);
  e.label = label;
  trace_->on_event(e);
}

AccessResult MemSystem::access_impl(int tid, int core, Line line,
                                    const Placement& place, AccessType type,
                                    const AccessOpts& opts, Nanos now) {
  switch (protocol_) {
    case Protocol::kMesi:
      return access_impl_p<MesiPolicy>(tid, core, line, place, type, opts,
                                       now);
    case Protocol::kMosi:
      return access_impl_p<MosiPolicy>(tid, core, line, place, type, opts,
                                       now);
    case Protocol::kMesif:
      break;
  }
  return access_impl_p<MesifPolicy>(tid, core, line, place, type, opts, now);
}

template <class Policy>
AccessResult MemSystem::access_impl_p(int tid, int core, Line line,
                                      const Placement& place, AccessType type,
                                      const AccessOpts& opts, Nanos now) {
  using P = Policy;
  CAPMEM_DCHECK(core >= 0 && core < cfg_->cores());
  CAPMEM_DCHECK(tid >= 0 && tid < static_cast<int>(counters_.size()));
  auto& ctr = counters_[static_cast<std::size_t>(tid)];
  ctr.line_ops++;
  const int tile = topo_->tile_of_core(core);
  const auto& lt = cfg_->lat;

  // Non-temporal stores bypass the hierarchy: invalidate any cached copies,
  // push the line straight to memory (no RFO, no fill).
  if (opts.nt && type == AccessType::kWrite) {
    LineEntry& e = dir_.entry(line);
    invalidate_others(e, line, /*keep_tile=*/-1, tid, now);
    // Also drop our own copy if present.
    if (e.present_in_tile(tile)) {
      l2_[static_cast<std::size_t>(tile)].erase(line);
      e.l2_mask &= ~(1ull << tile);
      for (int c = topo_->first_core_of_tile(tile);
           c < topo_->first_core_of_tile(tile) + cfg_->cores_per_tile; ++c) {
        if ((e.l1_mask >> c) & 1ull) {
          l1_[static_cast<std::size_t>(c)].erase(line);
          e.l1_mask &= ~(1ull << c);
        }
      }
      e.owner = -1;
      e.dirty = false;
    }
    const MemTarget& target = target_of(e, line, place);
    AccessResult res;
    const double nt_traffic =
        static_cast<double>(kLineBytes) *
        (opts.copy_pair ? 1.0 : cfg_->bw.write_turnaround);
    Nanos channel_done;
    if (target.kind == MemKind::kMCDRAM) {
      channel_done = mcdram_.transfer(target.channel, now, nt_traffic);
      res.level = Level::kMcdram;
      ctr.mcdram_lines++;
    } else if (mc_cache_.enabled()) {
      // NT data may still be allocated into the memory-side cache
      // (paper §II.C: even uncacheable data can land in the MCDRAM cache),
      // but the dirtied line is eventually written back to DDR — charge
      // both channels so NT write streams stay DDR-bound in cache mode.
      mc_cache_.access(line);
      channel_done = mcdram_.transfer(static_cast<int>(line) %
                                          mcdram_.size(),
                                      now, static_cast<double>(kLineBytes),
                                      cfg_->bw.mc_cache_bw_factor);
      channel_done = std::max(
          channel_done,
          dram_.transfer(target.channel, now,
                         static_cast<double>(kLineBytes)));
      res.level = Level::kMcdramCacheHit;
      ctr.mc_cache_hits++;
    } else {
      channel_done = dram_.transfer(target.channel, now, nt_traffic);
      res.level = Level::kDram;
      ctr.dram_lines++;
    }
    const Nanos issue = opts.streaming ? 2.0 : 8.0;
    const Nanos core_done = core_issue(core, now, issue);
    res.finish =
        std::max({now + jitter(issue, false), core_done, channel_done});
    e.version++;
    e.last_write_visible = res.finish;
    check_entry_p<P>(e);
    note_transition(line, e);
    return res;
  }

  DirHandle eh;
  LineEntry& e = dir_.entry(line, eh);
  const bool l1_hit = l1_[static_cast<std::size_t>(core)].lookup(line);
  const bool l2_hit = l2_[static_cast<std::size_t>(tile)].lookup(line);
  CAPMEM_DCHECK(!l1_hit || l2_hit);

  AccessResult res;

  if (type == AccessType::kRead) {
    if (l1_hit) {
      ctr.l1_hits++;
      res.level = Level::kL1;
      res.prior = Directory::state_in_tile(e, tile);
      const Nanos cost = opts.streaming
                             ? stream_issue_cost(Level::kL1, res.prior, type,
                                                 opts)
                             : lt.l1_hit;
      res.finish = opts.streaming
                       ? std::max(now + cost, core_issue(core, now, cost))
                       : std::max(now + cost, core_issue(core, now, 1.0));
      return res;
    }
    if (l2_hit) {
      ctr.l2_tile_hits++;
      res.level = Level::kL2Tile;
      res.prior = Directory::state_in_tile(e, tile);
      Nanos cost;
      if (opts.streaming) {
        cost = stream_issue_cost(Level::kL2Tile, res.prior, type, opts);
        res.finish =
            std::max(now + jitter(cost, false), core_issue(core, now, cost));
      } else {
        cost = res.prior == TileState::kM || res.prior == TileState::kO
                   ? lt.l2_tile_m
               : res.prior == TileState::kE ? lt.l2_tile_e
                                            : lt.l2_tile_sf;
        // Reading another core's modified tile line forces the write-back
        // downgrade inside the tile (M -> shared within tile).
        res.finish = std::max(now + jitter(cost), core_issue(core, now, 1.0));
      }
      l1_insert(core, line, e, eh);
      check_entry_p<P>(e);
      note_transition(line, e);
      return res;
    }

    // Directory request: serialize at the line's CHA (contention law).
    Nanos svc_start = std::max(now, e.service_available);
    if (fault_stuck_ && fault_->line_stuck(line)) {
      // Sticky CHA entry: one extra re-lookup before service.
      svc_start += fault_->stuck_retry_ns;
      ++fault_stuck_hits_;
      if (trace_ != nullptr) {
        obs::TraceEvent fe;
        fe.kind = obs::EventKind::kFaultRetry;
        fe.t = now;
        fe.tid = tid;
        fe.line = line;
        fe.label = "stuck-dir";
        trace_->on_event(fe);
      }
    }
    e.service_available = svc_start + jitter(lt.line_service, false);
    const MemTarget& target = target_of(e, line, place);
    if (obs_on_) {
      note_dir_lookup(tid, line, target.home_tile, now, svc_start,
                      e.service_available - svc_start);
    }
    if (check_ != nullptr) {
      check_->on_dir_lookup(line, place, target.home_tile);
    }

    if (e.owner >= 0 && e.owner != tile) {
      // Remote owned copy (M/E, or M/O under MOSI): cache-to-cache transfer.
      if constexpr (P::kDirtyShared) {
        res.prior = Directory::state_in_tile(e, e.owner);
      } else {
        res.prior = e.dirty ? TileState::kM : TileState::kE;
      }
      ctr.remote_hits++;
      res.level = Level::kRemoteL2;
      const int legs = mesh_legs_tiles(tile, target.home_tile, e.owner);
      if (obs_on_) {
        note_hops(tid, core, legs, now, tile, target.home_tile,
                  topo_->tile_coord(e.owner));
        if constexpr (P::kDirtyShared) {
          // MOSI: the owner keeps the dirty line and moves to O.
          note_coherence(tid, core, e.owner, line, res.prior, TileState::kO,
                         svc_start, "share");
        } else {
          // The old owner is downgraded to a shared copy (MESIF read c2c).
          note_coherence(tid, core, e.owner, line, res.prior, TileState::kS,
                         svc_start, "downgrade");
        }
      }
      Nanos cost;
      if (opts.streaming) {
        cost = stream_issue_cost(Level::kRemoteL2, res.prior, type, opts);
        res.finish = std::max(svc_start + jitter(cost, false),
                              core_issue(core, now, cost));
      } else {
        cost = remote_transfer_cost(res.prior, legs);
        res.finish =
            std::max(svc_start + cost, core_issue(core, now, 1.0));
      }
      res.finish = std::max(res.finish, l2_supply(e.owner, svc_start));
      if (!fault_mesh_.empty()) {
        res.finish +=
            fault_path_penalty(tid, now, tile, target.home_tile, e.owner);
      }
      if constexpr (P::kDirtyShared) {
        // MOSI: the owner keeps its dirty copy and stays responsible for it
        // (M -> O once the requester's copy lands); no write-back, memory
        // stays stale until the owner is invalidated or evicted.
        if (mutation::is(mutation::Kind::kMosiLostOwner)) {
          // Fault injection (mutation-smoke builds only): the O-state
          // bookkeeping "loses" the owner while the line stays dirty.
          e.owner = -1;
        }
      } else {
        if (e.dirty) {
          // Downgrade write-back (dirty owner -> S, memory updated).
          ctr.writebacks++;
          if (mc_cache_.enabled()) {
            mc_cache_.write_back(line);
          } else if (target.kind == MemKind::kMCDRAM) {
            mcdram_.transfer(target.channel, now,
                             static_cast<double>(kLineBytes));
          } else {
            dram_.transfer(target.channel, now,
                           static_cast<double>(kLineBytes));
          }
        }
        e.owner = -1;
        e.dirty = false;
        if constexpr (P::kHasForward) {
          e.forward = tile;  // newest requester holds F (MESIF)
        } else if (mutation::is(mutation::Kind::kMesiPhantomForwarder)) {
          // Fault injection (mutation-smoke builds only): a c2c read
          // designates the requester as forwarder — a state MESI lacks.
          e.forward = tile;
        }
      }
      fill_caches(core, tile, line, e, eh);
      check_entry_p<P>(e);
      note_transition(line, e);
      return res;
    }

    if (e.l2_mask != 0) {
      // Shared: served by the forwarder if one exists, else by memory.
      res.prior = e.forward >= 0 ? TileState::kF : TileState::kS;
      if constexpr (P::kHasForward) {
        if (e.forward >= 0) {
          ctr.remote_hits++;
          res.level = Level::kRemoteL2;
          const int legs = mesh_legs_tiles(tile, target.home_tile,
                                           e.forward);
          if (obs_on_) {
            note_hops(tid, core, legs, now, tile, target.home_tile,
                      topo_->tile_coord(e.forward));
          }
          Nanos cost;
          if (opts.streaming) {
            cost = stream_issue_cost(Level::kRemoteL2, res.prior, type,
                                     opts);
            res.finish = std::max(svc_start + jitter(cost, false),
                                  core_issue(core, now, cost));
          } else {
            cost = remote_transfer_cost(res.prior, legs);
            res.finish =
                std::max(svc_start + cost, core_issue(core, now, 1.0));
          }
          res.finish = std::max(res.finish, l2_supply(e.forward, svc_start));
          if (!fault_mesh_.empty()) {
            res.finish += fault_path_penalty(tid, now, tile,
                                             target.home_tile, e.forward);
          }
          e.forward = tile;  // F migrates to the newest requester
          fill_caches(core, tile, line, e, eh);
          check_entry_p<P>(e);
          note_transition(line, e);
          return res;
        }
      }
      // Silent sharers only (every shared read without a forwarder state):
      // memory supplies the data.
      res = memory_access(tid, core, line, target, type, opts,
                          std::max(now, svc_start), tile);
      if constexpr (P::kHasForward) e.forward = tile;
      fill_caches(core, tile, line, e, eh);
      check_entry_p<P>(e);
      note_transition(line, e);
      return res;
    }

    // Globally invalid: fetch from memory. Protocols with E install the
    // sole clean copy as Exclusive; MOSI installs plain Shared.
    res = memory_access(tid, core, line, target, type, opts,
                        std::max(now, svc_start), tile);
    if constexpr (P::kHasExclusive) {
      e.owner = tile;
      e.dirty = false;
    }
    fill_caches(core, tile, line, e, eh);
    check_entry_p<P>(e);
    note_transition(line, e);
    return res;
  }

  // --- write path ---
  bool silent_upgrade = e.owner == tile && l2_hit;
  if constexpr (P::kDirtyShared) {
    // MOSI: an O owner with other sharers must still run the invalidation
    // round through the home CHA; only a sole-copy owner upgrades silently.
    silent_upgrade = silent_upgrade && (e.l2_mask & (e.l2_mask - 1)) == 0;
  }
  if (silent_upgrade) {
    // We own the line: silent upgrade M, drop other-core L1 copies in tile.
    res.level = l1_hit ? Level::kL1 : Level::kL2Tile;
    res.prior = e.dirty ? TileState::kM : TileState::kE;
    if (l1_hit) ctr.l1_hits++; else ctr.l2_tile_hits++;
    for (int c = topo_->first_core_of_tile(tile);
         c < topo_->first_core_of_tile(tile) + cfg_->cores_per_tile; ++c) {
      if (c != core && ((e.l1_mask >> c) & 1ull)) {
        l1_[static_cast<std::size_t>(c)].erase(line);
        e.l1_mask &= ~(1ull << c);
      }
    }
    Nanos cost;
    if (opts.streaming) {
      cost = stream_issue_cost(l1_hit ? Level::kL1 : Level::kL2Tile,
                               res.prior, type, opts);
      res.finish = std::max(now + cost, core_issue(core, now, cost));
    } else {
      cost = l1_hit ? lt.l1_hit
                    : (e.dirty ? lt.l2_tile_m : lt.l2_tile_e);
      res.finish = std::max(now + jitter(cost), core_issue(core, now, 1.0));
    }
    if (obs_on_ && res.prior != TileState::kM) {
      note_coherence(tid, core, tile, line, res.prior, TileState::kM, now,
                     "upgrade");
    }
    e.dirty = true;
    l1_insert(core, line, e, eh);
    if (!mutation::is(mutation::Kind::kSkipVersionBump)) e.version++;
    e.last_write_visible = res.finish;
    check_entry_p<P>(e);
    note_transition(line, e);
    return res;
  }

  // RFO through the directory.
  Nanos svc_start = std::max(now, e.service_available);
  if (fault_stuck_ && fault_->line_stuck(line)) {
    svc_start += fault_->stuck_retry_ns;
    ++fault_stuck_hits_;
    if (trace_ != nullptr) {
      obs::TraceEvent fe;
      fe.kind = obs::EventKind::kFaultRetry;
      fe.t = now;
      fe.tid = tid;
      fe.line = line;
      fe.label = "stuck-dir";
      trace_->on_event(fe);
    }
  }
  e.service_available = svc_start + jitter(lt.line_service, false);
  const MemTarget& target = target_of(e, line, place);
  if (obs_on_) {
    note_dir_lookup(tid, line, target.home_tile, now, svc_start,
                    e.service_available - svc_start);
  }
  if (check_ != nullptr) {
    check_->on_dir_lookup(line, place, target.home_tile);
  }

  if (e.owner >= 0 && e.owner != tile) {
    ctr.remote_hits++;
    res.level = Level::kRemoteL2;
    if constexpr (P::kDirtyShared) {
      res.prior = Directory::state_in_tile(e, e.owner);
    } else {
      res.prior = e.dirty ? TileState::kM : TileState::kE;
    }
    const int legs = mesh_legs_tiles(tile, target.home_tile, e.owner);
    if (obs_on_) {
      note_hops(tid, core, legs, now, tile, target.home_tile,
                topo_->tile_coord(e.owner));
    }
    const int src = e.owner;
    Nanos cost;
    if (opts.streaming) {
      cost = stream_issue_cost(Level::kRemoteL2, res.prior, type, opts);
      res.finish = std::max(svc_start + jitter(cost, false),
                            core_issue(core, now, cost));
    } else {
      cost = remote_transfer_cost(res.prior, legs);
      res.finish = std::max(svc_start + cost, core_issue(core, now, 1.0));
    }
    res.finish = std::max(res.finish, l2_supply(src, svc_start));
    if (!fault_mesh_.empty()) {
      res.finish += fault_path_penalty(tid, now, tile, target.home_tile, src);
    }
    invalidate_others(e, line, tile, tid, now);
  } else if (e.l2_mask != 0 &&
             (!(e.owner == tile) ||
              (P::kDirtyShared && (e.l2_mask & (e.l2_mask - 1)) != 0))) {
    // Upgrade from shared: invalidation round via the home CHA. Under MOSI
    // this includes the O owner itself writing while other tiles share the
    // line — the sharers are invalidated but no memory fetch is needed.
    res.level = Level::kRemoteL2;
    res.prior = e.present_in_tile(tile)
                    ? Directory::state_in_tile(e, tile)
                    : (e.forward >= 0 ? TileState::kF : TileState::kS);
    const int far = e.forward >= 0 ? e.forward : tile;
    const int legs = mesh_legs_tiles(tile, target.home_tile, far);
    if (obs_on_) {
      note_hops(tid, core, legs, now, tile, target.home_tile,
                topo_->tile_coord(far));
    }
    Nanos cost;
    if (opts.streaming) {
      cost = stream_issue_cost(Level::kRemoteL2, TileState::kS, type, opts);
      res.finish = std::max(svc_start + jitter(cost, false),
                            core_issue(core, now, cost));
    } else {
      cost = remote_transfer_cost(TileState::kS, legs);
      res.finish = std::max(svc_start + cost, core_issue(core, now, 1.0));
    }
    if (!fault_mesh_.empty()) {
      res.finish += fault_path_penalty(tid, now, tile, target.home_tile, far);
    }
    invalidate_others(e, line, tile, tid, now);
    ctr.remote_hits++;
  } else {
    // Globally invalid (or stale self-entry): RFO memory fetch.
    res = memory_access(tid, core, line, target, type, opts,
                        std::max(now, svc_start), tile);
  }

  if (obs_on_) {
    note_coherence(tid, core, tile, line, res.prior, TileState::kM, now,
                   "upgrade");
  }
  e.owner = tile;
  e.dirty = true;
  e.forward = -1;
  fill_caches(core, tile, line, e, eh);
  // Only this core's L1 may keep the copy after a write.
  for (int c = topo_->first_core_of_tile(tile);
       c < topo_->first_core_of_tile(tile) + cfg_->cores_per_tile; ++c) {
    if (c != core && ((e.l1_mask >> c) & 1ull)) {
      l1_[static_cast<std::size_t>(c)].erase(line);
      e.l1_mask &= ~(1ull << c);
    }
  }
  e.version++;
  e.last_write_visible = res.finish;
  check_entry_p<P>(e);
  note_transition(line, e);
  return res;
}

void MemSystem::flush_line(Line line, bool drop_mcdram_cache) {
  // One find, then walk only the set sharer/presence bits, then drop the
  // entry (a flushed line is globally Invalid).
  if (const LineEntry* e = dir_.find(line)) {
    for (std::uint64_t m = e->l2_mask; m != 0; m &= m - 1)
      l2_[static_cast<std::size_t>(__builtin_ctzll(m))].erase(line);
    for (std::uint64_t m = e->l1_mask; m != 0; m &= m - 1)
      l1_[static_cast<std::size_t>(__builtin_ctzll(m))].erase(line);
    dir_.drop(line);
    if (check_ != nullptr) check_->on_flush(line);
  }
  if (drop_mcdram_cache) mc_cache_.erase(line);
}

void MemSystem::reset() {
  for (auto& c : l1_) c.clear();
  for (auto& c : l2_) c.clear();
  mc_cache_.clear();
  dram_.reset();
  mcdram_.reset();
  for (auto& p : core_ports_) p.reset();
  for (auto& p : l2_supply_) p.reset();
  dir_.clear();
  if (check_ != nullptr) check_->on_reset();
}

void MemSystem::clear_counters() {
  for (auto& c : counters_) c = ThreadCounters{};
}

double MemSystem::dram_busy_ns() const {
  double b = 0;
  for (int c = 0; c < dram_.size(); ++c) b += dram_.busy(c);
  return b;
}

double MemSystem::mcdram_busy_ns() const {
  double b = 0;
  for (int c = 0; c < mcdram_.size(); ++c) b += mcdram_.busy(c);
  return b;
}

void MemSystem::flush_metrics(Nanos elapsed) {
  if (metrics_ == nullptr) return;
  obs::Registry& reg = *metrics_;
  reg.add("sim.machines", 1);
  reg.add("sim.elapsed_ns", elapsed);

  // Per-channel busy time and utilization (busy / machine elapsed). The
  // utilization histograms aggregate the channel population across every
  // Machine that flushed into this registry.
  const auto flush_pool = [&](const ChannelPool& pool, const char* name) {
    for (int c = 0; c < pool.size(); ++c) {
      reg.add(std::string("sim.") + name + ".ch" + std::to_string(c) +
                  ".busy_ns",
              pool.busy(c));
      if (elapsed > 0) {
        reg.record(std::string("sim.") + name + ".channel_util",
                   pool.busy(c) / elapsed);
      }
    }
    reg.add(std::string("sim.") + name + ".busy_ns", pool.busy_total());
  };
  flush_pool(dram_, "dram");
  flush_pool(mcdram_, "mcdram");

  // Mesh occupancy (hop totals) and directory home-CHA request counts.
  reg.add("sim.noc.hops", static_cast<double>(noc_hops_total_));
  for (std::size_t t = 0; t < dir_requests_.size(); ++t) {
    if (dir_requests_[t] == 0) continue;
    reg.add("sim.dir.home" + std::to_string(t) + ".requests",
            static_cast<double>(dir_requests_[t]));
  }
  reg.merge_hist("sim.cha.queue_ns", cha_queue_);

  // Queue-delay distributions: one aggregate plus per-thread breakdowns.
  obs::Log2Hist all_queue;
  for (std::size_t tid = 0; tid < queue_delay_.size(); ++tid) {
    const obs::Log2Hist& h = queue_delay_[tid];
    if (h.count == 0) continue;
    all_queue.merge(h);
    reg.merge_hist("sim.mem.queue_delay_ns.tid" + std::to_string(tid), h);
  }
  reg.merge_hist("sim.mem.queue_delay_ns", all_queue);

  // Core issue-port / L2-supply occupancy.
  double issue_busy = 0;
  for (const auto& p : core_ports_) issue_busy += p.busy();
  double supply_busy = 0;
  for (const auto& p : l2_supply_) supply_busy += p.busy();
  reg.add("sim.core_issue.busy_ns", issue_busy);
  reg.add("sim.l2_supply.busy_ns", supply_busy);

  // ThreadCounters aggregate (the classification partition of line_ops).
  ThreadCounters sum;
  for (const auto& c : counters_) {
    sum.l1_hits += c.l1_hits;
    sum.l2_tile_hits += c.l2_tile_hits;
    sum.remote_hits += c.remote_hits;
    sum.dram_lines += c.dram_lines;
    sum.mcdram_lines += c.mcdram_lines;
    sum.mc_cache_hits += c.mc_cache_hits;
    sum.mc_cache_misses += c.mc_cache_misses;
    sum.writebacks += c.writebacks;
    sum.invalidations += c.invalidations;
    sum.line_ops += c.line_ops;
  }
  reg.add("sim.mem.l1_hits", static_cast<double>(sum.l1_hits));
  reg.add("sim.mem.l2_tile_hits", static_cast<double>(sum.l2_tile_hits));
  reg.add("sim.mem.remote_hits", static_cast<double>(sum.remote_hits));
  reg.add("sim.mem.dram_lines", static_cast<double>(sum.dram_lines));
  reg.add("sim.mem.mcdram_lines", static_cast<double>(sum.mcdram_lines));
  reg.add("sim.mem.mc_cache_hits", static_cast<double>(sum.mc_cache_hits));
  reg.add("sim.mem.mc_cache_misses",
          static_cast<double>(sum.mc_cache_misses));
  reg.add("sim.mem.writebacks", static_cast<double>(sum.writebacks));
  reg.add("sim.mem.invalidations", static_cast<double>(sum.invalidations));
  reg.add("sim.mem.line_ops", static_cast<double>(sum.line_ops));
  // MCDRAM-cache hit ratio of this machine, as a distribution across
  // machines (a plain counter ratio is recoverable from the two counters).
  const std::uint64_t mc_total = sum.mc_cache_hits + sum.mc_cache_misses;
  if (mc_total > 0) {
    reg.record("sim.mc_cache.hit_ratio",
               static_cast<double>(sum.mc_cache_hits) /
                   static_cast<double>(mc_total));
  }

  // Fault-injection counters (only with a plan attached, so healthy runs
  // don't grow zero-valued keys).
  if (fault_ != nullptr) {
    reg.add("sim.fault.link_retries",
            static_cast<double>(fault_link_retries_));
    reg.add("sim.fault.stuck_dir_hits",
            static_cast<double>(fault_stuck_hits_));
    reg.add("sim.fault.degraded_transfers",
            static_cast<double>(dram_.degraded_transfers() +
                                mcdram_.degraded_transfers()));
  }
}

}  // namespace capmem::sim
