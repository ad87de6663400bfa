// Virtual-time attribution: an exact, deterministic ledger that charges
// every simulated nanosecond to a category and every message to a traffic
// counter, plus a critical-path extractor for collectives.
//
// Attribution rides the simulator's one observer seam: a Machine's Fanout
// (sim/fanout.hpp) owns one Ledger when MachineConfig::attr is set and feeds
// it the engine's and awaiters' clock charges and the memory system's
// traffic events; the Ledger never steers the simulation.
//
// Exactness. `Nanos` is a double, and double addition is not associative,
// so "sum of categories == virtual time" cannot be checked in floating
// point. The ledger therefore accounts in integer picosecond ticks
// (to_ticks). Each charge site reports the task clock before and after a
// mutation; the ledger charges ticks(after) - ticks(before) and keeps a
// per-task mirror of the last charged-to clock. Per task the charges
// telescope, so
//
//     sum over (category, tile) cells
//       == sum over tasks of ticks(end) - ticks(spawn)      (exact, int64)
//
// holds by construction *if every clock-mutation site charges*. A site
// that forgets shows up as a nonzero kUnattributed cell (the mirror
// mismatch is charged there, keeping the identity intact while flagging
// the gap); tests assert kUnattributed == 0.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace capmem::obs::attr {

/// Integer picoseconds: the exact currency of the ledger.
using Ticks = std::int64_t;

inline Ticks to_ticks(double ns) {
  return static_cast<Ticks>(std::llround(ns * 1e3));
}

inline double to_ns(Ticks t) { return static_cast<double>(t) * 1e-3; }

/// Conserved task-time categories. Together they partition each task's
/// lifetime [spawn, engine end]; access categories are keyed by the level
/// that served the line (polling reads while parked are charged as
/// accesses at their serving level, the park interval as kParkWait).
enum class TimeCat : std::uint8_t {
  kCompute = 0,     // Advance: modelled core work between memory ops
  kTimerWait,       // AdvanceTo: waiting for an absolute virtual time
  kBarrierWait,     // sync_arrive: waiting for the last barrier arrival
  kParkWait,        // parked on a line until a writer's notify
  kL1,              // access served by the local L1
  kL2Tile,          // access served by the tile-shared L2
  kRemoteL2,        // access served cache-to-cache from a remote tile
  kDram,            // access served by a DDR channel
  kMcdram,          // access served by an MCDRAM channel (flat region)
  kMcCacheHit,      // access hitting the MCDRAM-as-cache
  kMcCacheMiss,     // access missing the MCDRAM-as-cache (DDR fill)
  kEndSlack,        // task finished before the engine: idle tail
  kUnattributed,    // mirror mismatch: a charge site was missed
  kCount,
};

const char* to_string(TimeCat c);

/// Coherence-transition labels (note_coherence's label vocabulary).
enum class TransLabel : std::uint8_t {
  kInvalidate = 0,
  kUpgrade,
  kDowngrade,
  kShare,
  kCount,
};

const char* to_string(TransLabel l);

/// One backward dependency link of the extracted critical path:
/// task `tid` (on `tile`) could not proceed before time `t` because of
/// `pred` (on `pred_tile`); it then ran for `dur` ns until the next link
/// (or its completion). `kind` is "wake" (line notify) or "sync"
/// (barrier release); `key` is the line address for wake links.
struct PathLink {
  int tid = -1;
  int pred = -1;
  int tile = 0;
  int pred_tile = 0;
  double t = 0;
  double dur = 0;
  const char* kind = "wake";
  std::uint64_t key = 0;
};

/// Per-Machine attribution ledger. Single-threaded (one Machine runs on
/// one host thread); merged into a shared Sink when the run finishes.
class Ledger {
 public:
  /// Width of the transition table: covers every sim::TileState value
  /// (coupled by enumerator position; attr never includes sim headers).
  static constexpr int kTransStates = 8;

  explicit Ledger(int tiles);

  // --- task lifecycle -----------------------------------------------------
  /// Task `tid` starts at `clock`; its cells are charged to `tile`.
  void on_spawn(int tid, int tile, double clock);

  /// Charge ticks(to) - ticks(from) of task `tid` to `cat`. `from` must be
  /// the task clock the previous charge left it at; any gap is charged to
  /// kUnattributed so conservation still holds while the miss is visible.
  void charge(int tid, TimeCat cat, double from, double to) {
    const Ticks t0 = to_ticks(from);
    const Ticks t1 = to_ticks(to);
    ensure_task(tid);
    const int tile = task_tile_[static_cast<std::size_t>(tid)];
    Ticks& m = mirror_[static_cast<std::size_t>(tid)];
    if (t0 != m) cells_[cell_idx(TimeCat::kUnattributed, tile)] += t0 - m;
    cells_[cell_idx(cat, tile)] += t1 - t0;
    m = t1;
  }

  // --- critical-path predecessor records ---------------------------------
  /// Task `woken` resumed at time `t` because `writer` made line `key`
  /// visible (writer < 0: unknown writer, recorded without a pred link).
  void on_wake_edge(int woken, int writer, std::uint64_t key, double t);
  /// Task `tid` left a barrier at `t`, released by last-arriver `releaser`.
  void on_sync_edge(int tid, int releaser, double t);

  // --- traffic (reported, not part of the conservation identity) ---------
  void count_access(int tile, TimeCat level_cat);
  void add_hops(int tile, int vertical, int horizontal);
  void add_dir_lookup(int home_tile, double queue_ns, double service_ns);
  void add_transition(int from_state, int to_state, const char* label);
  void set_channel_busy(double ddr_ns, double mcdram_ns);

  /// Close the ledger at engine end time: charges each task's idle tail to
  /// kEndSlack. Must be called exactly once, after which conserved() is
  /// meaningful.
  void finalize(double end_time_ns);


  // --- queries ------------------------------------------------------------
  int tiles() const { return tiles_; }
  int tasks() const { return static_cast<int>(mirror_.size()); }
  bool finalized() const { return finalized_; }
  double end_time_ns() const { return end_time_ns_; }

  Ticks cell(TimeCat c, int tile) const {
    return cells_[cell_idx(c, tile)];
  }
  Ticks total(TimeCat c) const;
  /// Sum of every (category, tile) cell.
  Ticks total_all() const;
  /// Sum over tasks of ticks(end) - ticks(spawn): what total_all() must
  /// equal exactly once finalized.
  Ticks expected_total() const;
  bool conserved() const {
    return finalized_ && total_all() == expected_total();
  }
  Ticks unattributed() const { return total(TimeCat::kUnattributed); }

  std::uint64_t access_count(TimeCat c, int tile) const {
    return counts_[cell_idx(c, tile)];
  }
  std::uint64_t access_count_total(TimeCat c) const;
  std::uint64_t hops_vertical() const { return hops_v_; }
  std::uint64_t hops_horizontal() const { return hops_h_; }
  std::uint64_t hop_vertical_tile(int t) const {
    return hop_v_tile_[static_cast<std::size_t>(t)];
  }
  std::uint64_t hop_horizontal_tile(int t) const {
    return hop_h_tile_[static_cast<std::size_t>(t)];
  }
  std::uint64_t dir_lookups(int tile) const {
    return dir_lookups_[static_cast<std::size_t>(tile)];
  }
  std::uint64_t dir_lookups_total() const;
  double cha_queue_ns() const { return cha_queue_ns_; }
  double cha_service_ns() const { return cha_service_ns_; }
  std::uint64_t transition(TransLabel l, int from, int to) const;
  double ddr_busy_ns() const { return ddr_busy_ns_; }
  double mcdram_busy_ns() const { return mcdram_busy_ns_; }

  /// Dominant dependency chain ending at the task with the largest final
  /// clock, in forward (source -> sink) order. Requires finalize().
  std::vector<PathLink> critical_path(std::size_t max_links = 64) const;

 private:
  struct Edge {
    int pred = -1;
    double t = 0;
    std::uint64_t key = 0;
    std::uint8_t kind = 0;  // 0 = wake, 1 = sync
  };

  std::size_t cell_idx(TimeCat c, int tile) const {
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(tiles_) +
           static_cast<std::size_t>(tile);
  }
  void ensure_task(int tid);

  int tiles_;
  std::vector<Ticks> cells_;            // [cat][tile]
  std::vector<std::uint64_t> counts_;   // [cat][tile], access cats only
  std::vector<Ticks> mirror_;           // per task: last charged-to clock
  std::vector<Ticks> spawn_;            // per task: spawn clock
  std::vector<Ticks> final_;            // per task: clock before end slack
  std::vector<int> task_tile_;          // per task: home tile for cells
  std::vector<std::vector<Edge>> edges_;
  std::vector<std::uint64_t> hop_v_tile_, hop_h_tile_;
  std::uint64_t hops_v_ = 0, hops_h_ = 0;
  std::vector<std::uint64_t> dir_lookups_;  // per home tile
  double cha_queue_ns_ = 0, cha_service_ns_ = 0;
  // [label][from][to]; states are clamped to < kTransStates.
  std::uint64_t trans_[static_cast<int>(TransLabel::kCount)]
                      [kTransStates][kTransStates] = {};
  double ddr_busy_ns_ = 0, mcdram_busy_ns_ = 0;
  double end_time_ns_ = 0;
  bool finalized_ = false;
};

/// Thread-safe aggregator: Machines (possibly on exec::Pool workers) merge
/// their Ledgers here; the Session dumps one JSON report (capmem.attr.v1)
/// at the end. merge() enforces the conservation invariant — a
/// non-conserving ledger is a bug and throws CheckError.
class Sink {
 public:
  /// One model-vs-attribution cross-validation row: a fitted capability
  /// constant checked against the measured mean time of an access category.
  struct CrossRow {
    std::string term;
    double fitted_ns = 0;
    TimeCat cat = TimeCat::kL1;
    double measured_ns = 0;     // filled by crossval()
    std::uint64_t samples = 0;  // filled by crossval()
  };

  void merge(const Ledger& l, const std::string& label);

  std::uint64_t machines() const;
  std::uint64_t tasks() const;
  Ticks total_ticks() const;
  Ticks expected_ticks() const;
  Ticks unattributed_ticks() const;
  Ticks time(TimeCat c) const;
  std::uint64_t access_count(TimeCat c) const;
  /// Mean attributed ns per access for a level category (0 if unseen).
  double mean_access_ns(TimeCat c) const;
  std::uint64_t hops_vertical() const;
  std::uint64_t hops_horizontal() const;
  /// Critical path of the merged machine with the longest virtual time.
  std::vector<PathLink> critical_path() const;

  /// Register a fitted constant for the cross-validation section of the
  /// report; measured means are computed from merged cells at query time.
  void add_crossval(const std::string& term, double fitted_ns, TimeCat cat);
  std::vector<CrossRow> crossval() const;

  /// capmem.attr.v1 report. `band`: relative disagreement beyond which a
  /// cross-validation row is flagged.
  void dump_json(std::ostream& os, double band = 0.5) const;

 private:
  struct LabelAgg {
    std::uint64_t machines = 0;
    Ticks time[static_cast<int>(TimeCat::kCount)] = {};
    std::uint64_t counts[static_cast<int>(TimeCat::kCount)] = {};
  };

  mutable std::mutex mu_;
  std::uint64_t machines_ = 0;
  std::uint64_t tasks_ = 0;
  Ticks total_ = 0, expected_ = 0;
  Ticks time_[static_cast<int>(TimeCat::kCount)] = {};
  std::uint64_t counts_[static_cast<int>(TimeCat::kCount)] = {};
  std::vector<Ticks> tile_time_;          // [cat][tile], tiles = max merged
  int tiles_ = 0;
  std::uint64_t hops_v_ = 0, hops_h_ = 0;
  std::uint64_t dir_lookups_ = 0;
  double cha_queue_ns_ = 0, cha_service_ns_ = 0;
  std::map<std::string, std::uint64_t> transitions_;  // "S->M upgrade" -> n
  double ddr_busy_ns_ = 0, mcdram_busy_ns_ = 0;
  std::map<std::string, LabelAgg> by_label_;
  std::vector<PathLink> crit_path_;
  double crit_end_ns_ = -1;
  std::string crit_label_;
  std::vector<CrossRow> crossval_;
};

}  // namespace capmem::obs::attr
