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
// The L1 tag arrays are the only record of which cores hold a line in L1:
// the directory tracks L2 sharers only, and drops the L1 copies of a tile by
// erasing the line from its cores' L1s (an erase of a non-resident line is a
// no-op and leaves LRU order alone).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/address.hpp"
#include "sim/state.hpp"

namespace capmem::sim {

class SetAssocCache {
 public:
  /// `capacity_bytes` must be a multiple of ways*64.
  SetAssocCache(std::uint64_t capacity_bytes, int ways);

  /// True when `line` is resident; touching updates LRU order.
  bool lookup(Line line) {
    const std::size_t base = set_base(line);
    for (int w = 0; w < ways_; ++w) {
      if (st_.lines[base + w] == line && st_.stamps[base + w] != 0) {
        st_.stamps[base + w] = ++st_.clock;
        return true;
      }
    }
    return false;
  }

  /// Presence test without LRU update.
  bool contains(Line line) const {
    const std::size_t base = set_base(line);
    for (int w = 0; w < ways_; ++w) {
      if (st_.lines[base + w] == line && st_.stamps[base + w] != 0) return true;
    }
    return false;
  }

  /// Inserts `line` (must not be resident) into its set's first empty way,
  /// else over the LRU victim (stamps are unique, so the minimum is
  /// unambiguous); returns the evicted line, if the set was full.
  std::optional<Line> insert(Line line) {
    CAPMEM_DCHECK(!contains(line));
    const std::size_t base = set_base(line);
    std::size_t way = base;
    bool full = true;
    for (int w = 0; w < ways_; ++w) {
      if (st_.stamps[base + w] == 0) {
        way = base + w;
        full = false;
        break;
      }
      if (st_.stamps[base + w] < st_.stamps[way]) way = base + w;
    }
    std::optional<Line> evicted;
    if (full) {
      evicted = st_.lines[way];
    } else {
      ++st_.resident;
    }
    st_.lines[way] = line;
    st_.stamps[way] = ++st_.clock;
    return evicted;
  }

  /// Removes `line` if resident; returns whether it was.
  bool erase(Line line) {
    const std::size_t base = set_base(line);
    for (int w = 0; w < ways_; ++w) {
      if (st_.lines[base + w] == line && st_.stamps[base + w] != 0) {
        st_.stamps[base + w] = 0;
        st_.lines[base + w] = 0;
        --st_.resident;
        return true;
      }
    }
    return false;
  }

  /// Drops everything (used by flush-style benchmark resets).
  void clear() {
    std::fill(st_.lines.begin(), st_.lines.end(), 0);
    std::fill(st_.stamps.begin(), st_.stamps.end(), 0);
    st_.resident = 0;
  }

  int sets() const { return static_cast<int>(nsets_); }
  int ways() const { return ways_; }
  std::uint64_t resident_lines() const { return st_.resident; }

  /// Visits every resident line; order unspecified. Used by the
  /// capmem::check residency sweeps (tag-array contents vs directory).
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (std::size_t i = 0; i < st_.stamps.size(); ++i) {
      if (st_.stamps[i] != 0) fn(st_.lines[i]);
    }
  }

  /// Checkpoint support (capmem::snap): the LRU clock, the resident count
  /// and the tag and LRU planes, held live as the one state::CacheState, so
  /// the snapshot digest reads them in place and an export copies them.
  /// The plane layout is position-deterministic (set index, way order), so
  /// exports are byte-stable across processes. Import requires matching
  /// geometry — snapshots only restore onto the config they captured.
  const state::CacheState& state() const { return st_; }
  void import_state(const state::CacheState& s) {
    CAPMEM_CHECK_MSG(s.lines.size() == st_.lines.size() &&
                         s.stamps.size() == st_.stamps.size(),
                     "cache snapshot geometry mismatch");
    st_ = s;
  }

 private:
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
  state::CacheState st_;  // LRU clock, resident count, tag and LRU planes
};

}  // namespace capmem::sim
