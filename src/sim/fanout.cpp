#include "sim/fanout.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/attr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/memsys.hpp"

namespace capmem::sim {

namespace {

using obs::EventKind;

class FanoutImpl final : public Fanout {
 public:
  FanoutImpl(const MachineConfig& cfg, const Topology& topo)
      : cfg_(cfg),
        topo_(topo),
        trace_(cfg.trace),
        metrics_(cfg.metrics),
        check_(cfg.check != nullptr ? cfg.check : &detached_) {
    if (cfg.attr != nullptr) {
      ledger_ = std::make_unique<obs::attr::Ledger>(cfg.active_tiles);
    }
    if (metrics_ != nullptr) {
      dir_requests_.resize(static_cast<std::size_t>(cfg.active_tiles), 0);
      queue_delay_.resize(static_cast<std::size_t>(cfg.hw_threads()));
    }
  }

  // ----------------------------------------------------------- scheduler

  void on_spawn(int tid, int tile, Nanos t) override {
    if (ledger_) ledger_->on_spawn(tid, tile, t);
    check_->on_spawn(tid, tile, t);
  }

  void on_resume(int tid, Nanos t) override {
    emit({.kind = EventKind::kTaskResume, .t = t, .tid = tid});
    check_->on_resume(tid, t);
  }

  void on_park(int tid, Line key, Nanos t) override {
    emit({.kind = EventKind::kTaskPark, .t = t, .tid = tid, .line = key});
    check_->on_park(tid, key, t);
  }

  void on_unpark(int tid, Line key, Nanos parked_at, Nanos woken,
                 int writer) override {
    // The parked interval as one slice: park time to the woken clock.
    emit({.kind = EventKind::kTaskUnpark, .t = parked_at,
          .dur = woken - parked_at, .tid = tid, .line = key});
    if (ledger_) ledger_->on_wake_edge(tid, writer, key, woken);
    check_->on_unpark(tid, key, parked_at, woken, writer);
  }

  void on_finish(int tid, Nanos t) override {
    emit({.kind = EventKind::kTaskFinish, .t = t, .tid = tid});
    check_->on_finish(tid, t);
  }

  void on_sync_wait(int tid, Nanos arrived, Nanos t, int releaser) override {
    if (ledger_) {
      ledger_->charge(tid, obs::attr::TimeCat::kBarrierWait, arrived, t);
      ledger_->on_sync_edge(tid, releaser, t);
    }
    check_->on_sync_wait(tid, arrived, t, releaser);
  }

  void on_sync_release(Nanos t, int arrivals) override {
    emit({.kind = EventKind::kSyncRelease, .t = t, .a = arrivals});
    check_->on_sync_release(t, arrivals);
  }

  void on_abort(AbortKind kind, Nanos t, int stuck_tid) override {
    emit({.kind = EventKind::kAbort, .t = t, .tid = stuck_tid,
          .label = to_string(kind)});
    check_->on_abort(kind, t, stuck_tid);
  }

  void on_charge(int tid, obs::attr::TimeCat cat, Nanos from,
                 Nanos to) override {
    if (ledger_) ledger_->charge(tid, cat, from, to);
    check_->on_charge(tid, cat, from, to);
  }

  // ------------------------------------------------------- memory system

  void on_access(const AccessRecord& r) override {
    if (ledger_) ledger_->count_access(r.tile, attr_cat(r.level));
    emit({.kind = EventKind::kLineAccess, .t = r.start,
          .dur = r.finish - r.start, .tid = r.tid, .core = r.core,
          .tile = r.tile, .line = r.line, .label = to_string(r.level)});
    if (metrics_ != nullptr) {
      // Per-thread channel queue delay of memory-served accesses: the delay
      // of the serving pool's most recent transfer.
      obs::Log2Hist& h = queue_delay_[static_cast<std::size_t>(r.tid)];
      switch (r.level) {
        case Level::kDram:
        case Level::kMcdramCacheMiss:
          h.record(last_queue_[static_cast<int>(MemKind::kDDR)]);
          break;
        case Level::kMcdram:
        case Level::kMcdramCacheHit:
          h.record(last_queue_[static_cast<int>(MemKind::kMCDRAM)]);
          break;
        default:
          break;
      }
    }
    check_->on_access(r);
  }

  void on_transition(Line line, const LineEntry& entry,
                     const MemSystem& mem) override {
    check_->on_transition(line, entry, mem);
  }

  void on_dir_lookup(int tid, Line line, int home_tile, Nanos t, Nanos start,
                     Nanos service) override {
    if (metrics_ != nullptr) {
      dir_requests_[static_cast<std::size_t>(home_tile)]++;
      cha_queue_.record(start - t);
    }
    if (ledger_) ledger_->add_dir_lookup(home_tile, start - t, service);
    emit({.kind = EventKind::kDirLookup, .t = start, .dur = service,
          .tid = tid, .line = line, .a = home_tile, .queue_ns = start - t});
    check_->on_dir_lookup(tid, line, home_tile, t, start, service);
  }

  void on_hops(int tid, int core, int legs, Nanos t, int req_tile,
               int home_tile, Coord far) override {
    if (metrics_ != nullptr) noc_hops_ += static_cast<std::uint64_t>(legs);
    if (ledger_) {
      // Split the request triangle's Manhattan hops by ring direction
      // (KNL's mesh routes Y-then-X; |dr| legs ride the vertical rings).
      const Coord rq = topo_.tile_coord(req_tile);
      const Coord hm = topo_.tile_coord(home_tile);
      const auto d = [](int a, int b) { return a > b ? a - b : b - a; };
      const int vertical =
          d(hm.row, rq.row) + d(far.row, hm.row) + d(rq.row, far.row);
      const int horizontal =
          d(hm.col, rq.col) + d(far.col, hm.col) + d(rq.col, far.col);
      ledger_->add_hops(req_tile, vertical, horizontal);
    }
    emit({.kind = EventKind::kNocHops, .t = t, .tid = tid, .core = core,
          .a = legs});
    check_->on_hops(tid, core, legs, t, req_tile, home_tile, far);
  }

  void on_coherence(int tid, int core, int tile, Line line, TileState from,
                    TileState to, Nanos t, const char* why) override {
    if (ledger_) {
      ledger_->add_transition(static_cast<int>(from), static_cast<int>(to),
                              why);
    }
    emit({.kind = EventKind::kCoherence, .t = t, .tid = tid, .core = core,
          .tile = tile, .line = line, .a = static_cast<int>(from),
          .b = static_cast<int>(to), .label = why});
    check_->on_coherence(tid, core, tile, line, from, to, t, why);
  }

  void on_channel_xfer(MemKind pool, int channel, Nanos start, Nanos service,
                       Nanos queue) override {
    last_queue_[static_cast<int>(pool)] = queue;
    emit({.kind = EventKind::kChannelXfer, .t = start, .dur = service,
          .a = channel, .queue_ns = queue,
          .label = pool == MemKind::kMCDRAM ? "mcdram" : "dram"});
    check_->on_channel_xfer(pool, channel, start, service, queue);
  }

  void on_link_retry(int tid, int retries, Nanos t) override {
    emit({.kind = EventKind::kFaultRetry, .t = t, .tid = tid, .a = retries,
          .label = "mesh-link"});
    check_->on_link_retry(tid, retries, t);
  }

  void on_stuck_dir(int tid, Line line, Nanos t) override {
    emit({.kind = EventKind::kFaultRetry, .t = t, .tid = tid, .line = line,
          .label = "stuck-dir"});
    check_->on_stuck_dir(tid, line, t);
  }

  void on_flush(Line line) override { check_->on_flush(line); }
  void on_drop(Line line) override { check_->on_drop(line); }

  // ---------------------------------------------------------- end of run

  void finish_run(const Engine& engine, const MemSystem& mem) override {
    if (ledger_) flush_attr(engine.now(), mem);
    if (metrics_ != nullptr) flush_metrics(engine, mem);
  }

 private:
  void emit(const obs::TraceEvent& e) {
    if (trace_ != nullptr) trace_->on_event(e);
  }
  void flush_attr(Nanos end, const MemSystem& mem);
  void flush_metrics(const Engine& engine, const MemSystem& mem);

  /// Stands in for a null cfg.check, so forwarding needs no branch.
  static inline Observer detached_;

  const MachineConfig& cfg_;
  const Topology& topo_;
  obs::TraceSink* trace_;
  obs::Registry* metrics_;
  Observer* check_;
  std::unique_ptr<obs::attr::Ledger> ledger_;  ///< null unless cfg.attr

  // Registry instruments (maintained only with cfg.metrics attached).
  std::vector<std::uint64_t> dir_requests_;  ///< per home tile
  std::uint64_t noc_hops_ = 0;
  obs::Log2Hist cha_queue_;                  ///< directory queueing delays
  std::vector<obs::Log2Hist> queue_delay_;   ///< per tid, channel queueing
  /// Queue delay of each pool's latest transfer (indexed by MemKind): the
  /// delay a memory-served access records.
  Nanos last_queue_[2] = {0, 0};
};

void FanoutImpl::flush_attr(Nanos end, const MemSystem& mem) {
  obs::attr::Ledger& led = *ledger_;
  led.set_channel_busy(mem.dram_busy_ns(), mem.mcdram_busy_ns());
  led.finalize(end);
  if (metrics_ != nullptr) {
    obs::Registry& reg = *metrics_;
    for (int c = 0; c < static_cast<int>(obs::attr::TimeCat::kCount); ++c) {
      const auto cat = static_cast<obs::attr::TimeCat>(c);
      const obs::attr::Ticks t = led.total(cat);
      if (t == 0) continue;
      reg.add(std::string("attr.time.") + obs::attr::to_string(cat) + "_ns",
              obs::attr::to_ns(t));
    }
    reg.add("attr.total_ns", obs::attr::to_ns(led.total_all()));
    reg.add("attr.unattributed_ns", obs::attr::to_ns(led.unattributed()));
    reg.add("attr.mesh.hops_vertical",
            static_cast<double>(led.hops_vertical()));
    reg.add("attr.mesh.hops_horizontal",
            static_cast<double>(led.hops_horizontal()));
    reg.add("attr.dir.lookups", static_cast<double>(led.dir_lookups_total()));
  }
  if (trace_ != nullptr) {
    int ordinal = 0;
    for (const obs::attr::PathLink& l : led.critical_path()) {
      if (l.pred < 0) continue;
      emit({.kind = EventKind::kCritEdge, .t = l.t, .dur = l.dur, .tid = l.tid,
            .tile = l.tile, .line = l.key, .a = l.pred, .b = ordinal++,
            .label = l.kind});
    }
  }
  cfg_.attr->merge(led, cfg_.name + "/" + to_string(cfg_.cluster) + "/" +
                            to_string(cfg_.memory) + "/" +
                            to_string(cfg_.protocol));
}

void FanoutImpl::flush_metrics(const Engine& engine, const MemSystem& mem) {
  obs::Registry& reg = *metrics_;
  const Nanos elapsed = engine.now();
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
  flush_pool(mem.dram_pool(), "dram");
  flush_pool(mem.mcdram_pool(), "mcdram");

  // Mesh occupancy (hop totals) and directory home-CHA request counts.
  reg.add("sim.noc.hops", static_cast<double>(noc_hops_));
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
  for (int c = 0; c < cfg_.cores(); ++c) issue_busy += mem.core_issue_busy(c);
  double supply_busy = 0;
  for (int t = 0; t < cfg_.active_tiles; ++t) {
    supply_busy += mem.l2_supply_busy(t);
  }
  reg.add("sim.core_issue.busy_ns", issue_busy);
  reg.add("sim.l2_supply.busy_ns", supply_busy);

  // ThreadCounters aggregate (the classification partition of line_ops).
  using Field = std::uint64_t ThreadCounters::*;
  static constexpr std::pair<const char*, Field> kCounters[] = {
      {"sim.mem.l1_hits", &ThreadCounters::l1_hits},
      {"sim.mem.l2_tile_hits", &ThreadCounters::l2_tile_hits},
      {"sim.mem.remote_hits", &ThreadCounters::remote_hits},
      {"sim.mem.dram_lines", &ThreadCounters::dram_lines},
      {"sim.mem.mcdram_lines", &ThreadCounters::mcdram_lines},
      {"sim.mem.mc_cache_hits", &ThreadCounters::mc_cache_hits},
      {"sim.mem.mc_cache_misses", &ThreadCounters::mc_cache_misses},
      {"sim.mem.writebacks", &ThreadCounters::writebacks},
      {"sim.mem.invalidations", &ThreadCounters::invalidations},
      {"sim.mem.line_ops", &ThreadCounters::line_ops},
  };
  ThreadCounters sum;
  for (const auto& [name, field] : kCounters) {
    for (int tid = 0; tid < cfg_.hw_threads(); ++tid) {
      sum.*field += mem.counters(tid).*field;
    }
    reg.add(name, static_cast<double>(sum.*field));
  }
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
  if (cfg_.fault != nullptr) {
    reg.add("sim.fault.link_retries",
            static_cast<double>(mem.fault_link_retries()));
    reg.add("sim.fault.stuck_dir_hits",
            static_cast<double>(mem.fault_stuck_hits()));
    reg.add("sim.fault.degraded_transfers",
            static_cast<double>(mem.dram_pool().degraded_transfers() +
                                mem.mcdram_pool().degraded_transfers()));
  }

  // Park-table health: keys must drain to zero on a clean run, and the pool
  // high-water mark stays at the peak number of concurrently parked wait
  // keys (slots are free-listed, not leaked per park/wake cycle).
  reg.set("sim.engine.park.keys", static_cast<double>(engine.parked_keys()));
  reg.set("sim.engine.park.pool_slots",
          static_cast<double>(engine.parked_pool_slots()));
}

}  // namespace

std::unique_ptr<Fanout> Fanout::make(const MachineConfig& cfg,
                                     const Topology& topo) {
  if (cfg.trace == nullptr && cfg.metrics == nullptr &&
      cfg.check == nullptr && cfg.attr == nullptr) {
    return nullptr;
  }
  return std::make_unique<FanoutImpl>(cfg, topo);
}

}  // namespace capmem::sim
