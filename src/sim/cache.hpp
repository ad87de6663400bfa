// Set-associative tag array with LRU replacement, used for the per-core L1s
// and the per-tile L2s. Tracks presence only — data lives in the address
// space; coherence state lives in the directory.
//
// Storage is two contiguous (nsets * ways) planes — line tags and LRU
// stamps — instead of a per-set heap vector; stamp == 0 marks an empty way
// (the LRU clock starts at 1). Tags and stamps are split so presence scans
// (lookup/contains/erase) touch half the bytes of an interleaved layout:
// they compare the tag first and read a way's stamp only on a tag match, so
// a miss reads the tag plane alone. The accessors are defined inline: they
// sit on the per-access hot path of MemSystem and are called tens of
// millions of times per simulated second.
//
// A cache filled through the handle-carrying insert gets a third plane: one
// caller-defined 32-bit value per way, stored by insert and handed back for
// the victim. The L1s keep each resident line's directory handle there, so
// an L1 eviction updates the victim's directory entry without a hash probe.
// The plane is allocated on that first insert and left uninitialized (a
// way's handle is read only while the way is resident, i.e. after insert
// wrote it), so a cache that is never filled costs nothing for it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/address.hpp"
#include "sim/state.hpp"

namespace capmem::sim {

class SetAssocCache {
 public:
  /// victim_handle's "no victim" value.
  static constexpr std::uint32_t kNoHandle = ~0u;

  /// `capacity_bytes` must be a multiple of ways*64.
  SetAssocCache(std::uint64_t capacity_bytes, int ways);

  /// True when `line` is resident; touching updates LRU order.
  bool lookup(Line line) {
    const std::size_t base = set_base(line);
    for (int w = 0; w < ways_; ++w) {
      if (lines_[base + w] == line && stamps_[base + w] != 0) {
        stamps_[base + w] = ++clock_;
        return true;
      }
    }
    return false;
  }

  /// Presence test without LRU update.
  bool contains(Line line) const {
    const std::size_t base = set_base(line);
    for (int w = 0; w < ways_; ++w) {
      if (lines_[base + w] == line && stamps_[base + w] != 0) return true;
    }
    return false;
  }

  /// Inserts `line` (must not be resident); returns the evicted line, if
  /// the target set was full.
  std::optional<Line> insert(Line line) {
    std::optional<Line> evicted;
    place(line, evicted);
    return evicted;
  }
  /// Same, storing `handle` beside the tag; when a line is evicted, sets
  /// `victim_handle` to its handle. A cache must be filled through one
  /// insert form only.
  std::optional<Line> insert(Line line, std::uint32_t handle,
                             std::uint32_t& victim_handle) {
    if (handles_ == nullptr) allocate_handles();
    std::optional<Line> evicted;
    const std::size_t way = place(line, evicted);
    if (evicted) victim_handle = handles_[way];
    handles_[way] = handle;
    return evicted;
  }

  /// Handle of the way an insert of `line` would evict, without touching
  /// LRU order; kNoHandle while `line`'s set has an empty way or the cache
  /// has no handle plane. Lets a caller prefetch the victim's record before
  /// the fill.
  std::uint32_t victim_handle(Line line) const {
    if (handles_ == nullptr) return kNoHandle;
    bool empty;
    const std::size_t way = fill_way(set_base(line), empty);
    return empty ? kNoHandle : handles_[way];
  }

  /// Removes `line` if resident; returns whether it was.
  bool erase(Line line) {
    const std::size_t base = set_base(line);
    for (int w = 0; w < ways_; ++w) {
      if (lines_[base + w] == line && stamps_[base + w] != 0) {
        stamps_[base + w] = 0;
        lines_[base + w] = 0;
        --resident_;
        return true;
      }
    }
    return false;
  }

  /// Drops everything (used by flush-style benchmark resets).
  void clear() {
    std::fill(lines_.begin(), lines_.end(), 0);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    resident_ = 0;
  }

  int sets() const { return static_cast<int>(nsets_); }
  int ways() const { return ways_; }
  std::uint64_t resident_lines() const { return resident_; }

  /// Visits every resident line; order unspecified. Used by the
  /// capmem::check residency sweeps (tag-array contents vs directory).
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
      if (stamps_[i] != 0) fn(lines_[i]);
    }
  }

  /// Visits every resident (line, handle) of a cache filled with handles.
  template <typename Fn>
  void for_each_handle(Fn&& fn) const {
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
      if (stamps_[i] != 0) fn(lines_[i], handles_[i]);
    }
  }
  /// Rewrites every resident way's handle as `fn(line)` (rebuilding the
  /// derived plane after import_state).
  template <typename Fn>
  void rebind_handles(Fn&& fn) {
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
      if (stamps_[i] == 0) continue;
      if (handles_ == nullptr) allocate_handles();
      handles_[i] = fn(lines_[i]);
    }
  }

  /// Checkpoint support (capmem::snap): the tag and LRU planes plus the LRU
  /// clock. The handle plane is derived data: the owner rebuilds it after an
  /// import (rebind_handles).
  /// The plane layout is position-deterministic (set index, way order), so
  /// exports are byte-stable across processes. Import requires matching
  /// geometry — snapshots only restore onto the config they captured.
  state::CacheState export_state() const {
    state::CacheState s;
    s.clock = clock_;
    s.resident = resident_;
    s.lines = lines_;
    s.stamps = stamps_;
    return s;
  }
  void import_state(const state::CacheState& s) {
    CAPMEM_CHECK_MSG(s.lines.size() == lines_.size() &&
                         s.stamps.size() == stamps_.size(),
                     "cache snapshot geometry mismatch");
    clock_ = s.clock;
    resident_ = s.resident;
    lines_ = s.lines;
    stamps_ = s.stamps;
  }

 private:
  void allocate_handles() {
    handles_ = std::make_unique_for_overwrite<std::uint32_t[]>(lines_.size());
  }

  /// Plane index of the way a fill of the set at `base` takes: its first
  /// empty way (`empty` = true), else the LRU victim (stamps are unique, so
  /// the minimum is unambiguous). One pass over the stamps.
  std::size_t fill_way(std::size_t base, bool& empty) const {
    int victim = 0;
    for (int w = 0; w < ways_; ++w) {
      if (stamps_[base + w] == 0) {
        empty = true;
        return base + w;
      }
      if (stamps_[base + w] < stamps_[base + victim]) victim = w;
    }
    empty = false;
    return base + victim;
  }

  /// Writes `line` into its set's first empty way, else over the LRU victim
  /// (reported through `evicted`); returns the way's plane index.
  std::size_t place(Line line, std::optional<Line>& evicted) {
    CAPMEM_DCHECK(!contains(line));
    bool empty;
    const std::size_t way = fill_way(set_base(line), empty);
    if (empty) {
      ++resident_;
    } else {
      evicted = lines_[way];
    }
    lines_[way] = line;
    stamps_[way] = ++clock_;
    return way;
  }

  std::size_t set_index(Line line) const {
    // nsets is a power of two for every real configuration; scaled test
    // machines may produce odd counts, hence the modulo fallback.
    return mask_ != 0 ? (line & mask_) : (line % nsets_);
  }
  std::size_t set_base(Line line) const {
    return set_index(line) * static_cast<std::size_t>(ways_);
  }

  int ways_;
  std::uint64_t nsets_;
  std::uint64_t mask_ = 0;  // nsets - 1 when nsets is a power of two
  std::uint64_t clock_ = 0;
  std::uint64_t resident_ = 0;
  std::vector<Line> lines_;           // tag plane
  std::vector<std::uint64_t> stamps_;  // LRU plane; 0 = empty way
  std::unique_ptr<std::uint32_t[]> handles_;  // handle plane, or null
};

}  // namespace capmem::sim
