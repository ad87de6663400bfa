// Directory coherence state (paper §II.A: the CHAs form a distributed tag
// directory keeping the per-tile L2s coherent — with MESIF on KNL, or with
// the MESI/MOSI variants selected through sim/protocol.hpp).
//
// State is tracked at tile granularity, matching the paper's benchmarks: the
// unit of coherence is an L2 line in some tile. L1 presence is not recorded
// here: the hierarchy is inclusive, so a core's L1 can hold a line only
// while its tile's L2 does, and the memory system drops a tile's L1 copies
// by erasing the line from its cores' L1 tag arrays. The classic states map
// onto this record as:
//   M/E — `owner` tile set, `dirty` distinguishes M from E
//   O   — `owner` set and dirty with other sharers in `l2_mask` (MOSI only)
//   S   — no owner; one or more tiles in `l2_mask`
//   F   — the designated forwarder among the sharers (`forward`, MESIF only)
//   I   — no record / empty masks
// Transitions are performed by the memory system; this module owns storage,
// queries and invariant checking. Which shapes are legal depends on the
// protocol's ProtocolRules table; the rules-free overloads check the
// default MESIF table.
#pragma once

#include <cstdint>
#include <utility>

#include "common/units.hpp"
#include "sim/address.hpp"
#include "sim/line_pages.hpp"
#include "sim/mem_map.hpp"
#include "sim/protocol.hpp"
#include "sim/state.hpp"

namespace capmem::sim {

/// Observable state of a line within one tile's L2 (the states the paper's
/// cache-to-cache benchmarks prepare and measure, plus MOSI's O).
enum class TileState { kI, kS, kE, kM, kF, kO };

// The sharer bitmap below is a single 64-bit word; every machine shape is
// capped at kMaxCoherenceTiles tiles (and 64 cores, the width of the
// snapshot's per-line L1 presence mask) and MachineConfig::validate enforces
// it before a Topology is ever built.
static_assert(sizeof(std::uint64_t) * 8 == kMaxCoherenceTiles,
              "LineEntry::l2_mask width must match the configured "
              "coherence-tile limit");

const char* to_string(TileState s);

// One host cache line per entry (alignas pads the record to 64 bytes):
// directory pages are 64-byte aligned, so a lookup touches exactly one line
// of entry data. Tiles are capped at kMaxCoherenceTiles (64), so tile
// indices fit in int8_t; the snapshot format (state::DirEntryState) keeps
// its int32 fields.
struct alignas(64) LineEntry {
  std::uint64_t l2_mask = 0;  ///< tiles with the line in L2

  /// Memoized physical target. The address map is a pure function of
  /// (line, placement), and virtual addresses are never reused within a
  /// machine, so a line's target is fixed for the whole run; resolving it
  /// once per line instead of once per access keeps the hash-and-route
  /// arithmetic off the hot path.
  MemTarget target;
  bool target_valid = false;

  std::int8_t owner = -1;     ///< tile in M/E, -1 otherwise
  std::int8_t forward = -1;   ///< forwarder tile when shared, -1 none
  bool dirty = false;         ///< owner copy modified (M) vs clean (E)

  /// CHA serialization point: requests to this line queue here, producing
  /// the paper's linear contention law.
  Nanos service_available = 0;
  /// Time at which the latest store to the line becomes visible (used to
  /// wake spin-waiters with the correct timestamp).
  Nanos last_write_visible = 0;
  /// Bumped on every store; spin-waiting is "wait until version changes".
  std::uint64_t version = 0;

  bool present_in_tile(int tile) const {
    return (l2_mask >> tile) & 1ull;
  }
  bool anywhere() const { return l2_mask != 0; }
};
static_assert(sizeof(LineEntry) == 64,
              "LineEntry must fill exactly one host cache line");

class Directory {
 public:
  /// Entry for `line`, creating an Invalid one if absent. The reference is
  /// stable until this line is dropped.
  LineEntry& entry(Line line) {
    // One-slot cache: spin-waits and RFO sequences hit the same line many
    // times in a row. Pages never move, so the cached pointer survives
    // unrelated inserts; it is dropped on erase/clear.
    if (line != last_line_ || last_entry_ == nullptr) {
      last_line_ = line;
      last_entry_ = &map_.get_or_create(line);
    }
    return *last_entry_;
  }
  /// Entry if tracked, nullptr otherwise.
  const LineEntry* find(Line line) const { return map_.find(line); }
  LineEntry* find(Line line) { return map_.find(line); }
  /// Drops `line`'s entry, which the caller has emptied (globally Invalid
  /// lines leave the table, keeping it compact).
  void drop(Line line) {
    if (line == last_line_) last_entry_ = nullptr;
    map_.erase(line);
  }

  /// State of `line` as seen by `tile`'s L2.
  TileState state_in_tile(Line line, int tile) const;
  /// Same given an already looked-up entry.
  static TileState state_in_tile(const LineEntry& e, int tile);

  /// Legal-state table the instance checks against (defaults to MESIF).
  /// MemSystem sets it from MachineConfig::protocol at construction.
  void set_rules(const ProtocolRules& rules) { rules_ = &rules; }
  const ProtocolRules& rules() const { return *rules_; }

  /// Protocol invariants; cheap enough to run after every transition.
  /// Throws CheckError on violation. The rules-free overloads check this
  /// instance's table (static check_entry: the MESIF default).
  void check_invariants(Line line) const;
  static void check_entry(const LineEntry& e);
  static void check_entry(const LineEntry& e, const ProtocolRules& rules);
  /// Sweeps every tracked line (test helper).
  void check_all() const {
    const ProtocolRules& r = *rules_;
    map_.for_each([&r](Line, const LineEntry& e) { check_entry(e, r); });
  }

  /// Visits every tracked (line, entry); order unspecified. Used by the
  /// capmem::check global sweeps to cross-check the directory against the
  /// actual cache residency.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each(std::forward<Fn>(fn));
  }

  std::size_t tracked_lines() const { return map_.size(); }

  void clear() {
    map_.clear();
    last_entry_ = nullptr;
  }

  /// Checkpoint support (capmem::snap). Entries export sorted by line (page
  /// iteration order depends on insert history); the memoized physical
  /// target is derived data and not exported.
  std::vector<state::DirEntryState> export_state() const;

 private:
  LinePages<LineEntry> map_;
  Line last_line_ = ~0ull;
  LineEntry* last_entry_ = nullptr;
  const ProtocolRules* rules_ = &rules_of(Protocol::kMesif);
};

}  // namespace capmem::sim
