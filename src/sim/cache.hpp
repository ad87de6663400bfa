// Set-associative tag array with LRU replacement, used for the per-core L1s
// and the per-tile L2s. Tracks presence only — data lives in the address
// space; coherence state lives in the directory.
//
// Storage is two contiguous (nsets * ways) planes — line tags and LRU
// stamps — instead of a per-set heap vector; stamp == 0 marks an empty way
// (the LRU clock starts at 1). Tags and stamps are split so presence scans
// (lookup/contains/erase) touch half the bytes of an interleaved layout:
// they compare the tag first and read a way's stamp only on a tag match, so
// a miss reads the tag plane alone. The accessors are defined inline and
// forced inline: they sit on the per-access hot path of MemSystem and are
// called tens of millions of times per simulated second, and left to its
// heuristics GCC outlines lookup and insert once they grow the touched-set
// test (capbench `sort` measured +12 % wall time that way).
//
// A touched-set bitmap (one bit per set, set by insert) records which sets
// have ever held a line; every other set is all zeros. The planes come in
// two modes:
//   * kEager: zero-filled at construction, and the probes read them
//     directly. MemSystem uses it for the L1s, whose hit path is the
//     hottest in the simulator and whose planes are small.
//   * kLazy: allocated without zero-fill; a set's ways are zeroed on its
//     first insert, and a probe of a never-touched set answers "absent"
//     without reading the planes. MemSystem uses it for the L2s (1 MB each
//     on KNL), so a Machine costs what it touches rather than its capacity.
// In both modes the sweeps (for_each_line, state(), for_each_run) visit
// touched sets only.
//
// The L1 tag arrays are the only record of which cores hold a line in L1:
// the directory tracks L2 sharers only, and drops the L1 copies of a tile by
// erasing the line from its cores' L1s (an erase of a non-resident line is a
// no-op and leaves LRU order alone).
#pragma once

#include <algorithm>
#include <bit>
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
  enum class Planes { kEager, kLazy };
  enum class Plane { kTags, kStamps };

  /// `capacity_bytes` must be a multiple of ways*64.
  SetAssocCache(std::uint64_t capacity_bytes, int ways,
                Planes mode = Planes::kLazy);

  /// True when `line` is resident; touching updates LRU order.
  [[gnu::always_inline]] bool lookup(Line line) {
    const std::size_t set = set_index(line);
    if (lazy_ && !touched(set)) return false;
    const std::size_t base = set * static_cast<std::size_t>(ways_);
    for (int w = 0; w < ways_; ++w) {
      if (lines_[base + w] == line && stamps_[base + w] != 0) {
        stamps_[base + w] = ++clock_;
        return true;
      }
    }
    return false;
  }

  /// Presence test without LRU update.
  [[gnu::always_inline]] bool contains(Line line) const {
    const std::size_t set = set_index(line);
    if (lazy_ && !touched(set)) return false;
    const std::size_t base = set * static_cast<std::size_t>(ways_);
    for (int w = 0; w < ways_; ++w) {
      if (lines_[base + w] == line && stamps_[base + w] != 0) return true;
    }
    return false;
  }

  /// Inserts `line` (must not be resident) into its set's first empty way,
  /// else over the LRU victim (stamps are unique, so the minimum is
  /// unambiguous); returns the evicted line, if the set was full.
  [[gnu::always_inline]] std::optional<Line> insert(Line line) {
    CAPMEM_DCHECK(!contains(line));
    const std::size_t set = set_index(line);
    const std::size_t base = set * static_cast<std::size_t>(ways_);
    std::uint64_t& word = touched_[set >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (set & 63);
    if (lazy_ && (word & bit) == 0) zero_set(base);
    word |= bit;
    std::size_t way = base;
    bool full = true;
    for (int w = 0; w < ways_; ++w) {
      if (stamps_[base + w] == 0) {
        way = base + w;
        full = false;
        break;
      }
      if (stamps_[base + w] < stamps_[way]) way = base + w;
    }
    std::optional<Line> evicted;
    if (full) {
      evicted = lines_[way];
    } else {
      ++resident_;
    }
    lines_[way] = line;
    stamps_[way] = ++clock_;
    return evicted;
  }

  /// Removes `line` if resident; returns whether it was.
  [[gnu::always_inline]] bool erase(Line line) {
    const std::size_t set = set_index(line);
    if (lazy_ && !touched(set)) return false;
    const std::size_t base = set * static_cast<std::size_t>(ways_);
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

  int sets() const { return static_cast<int>(nsets_); }
  int ways() const { return ways_; }
  std::uint64_t resident_lines() const { return resident_; }
  /// The LRU clock: the stamp of the most recent insert or lookup hit.
  std::uint64_t clock() const { return clock_; }
  /// Words in each plane: sets * ways.
  std::size_t plane_words() const {
    return nsets_ * static_cast<std::size_t>(ways_);
  }

  /// Visits every resident line, in plane order. Used by the capmem::check
  /// residency sweeps (tag-array contents vs directory) and the L1 mask
  /// derivation of MemSystem::export_state.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for_each_touched_set([&](std::size_t set) {
      const std::size_t base = set * static_cast<std::size_t>(ways_);
      for (int w = 0; w < ways_; ++w) {
        if (stamps_[base + w] != 0) fn(lines_[base + w]);
      }
    });
  }

  /// One plane in plane order as alternating runs of whole sets:
  /// `fn(words, n)` for the n words of consecutive touched sets, and
  /// `fn(nullptr, n)` for n words of never-touched sets, which hold zeros.
  /// The live snapshot digest folds the latter without reading them.
  template <typename Fn>
  void for_each_run(Plane plane, Fn&& fn) const {
    const std::uint64_t* words = plane == Plane::kTags ? lines_ : stamps_;
    const std::size_t w = static_cast<std::size_t>(ways_);
    for (std::size_t s = 0; s < nsets_;) {
      const bool t = touched(s);
      const std::size_t e = run_end(s, t);
      fn(t ? words + s * w : nullptr, (e - s) * w);
      s = e;
    }
  }

  /// Checkpoint support (capmem::snap): the LRU clock, the resident count
  /// and both planes, materialized with zeros for the untouched sets. The
  /// plane layout is position-deterministic (set index, way order), so
  /// exports are byte-stable across processes.
  state::CacheState state() const;

 private:
  std::size_t set_index(Line line) const {
    // nsets is a power of two for every real configuration; scaled test
    // machines may produce odd counts, hence the modulo fallback.
    return mask_ != 0 ? (line & mask_) : (line % nsets_);
  }
  bool touched(std::size_t set) const {
    return (touched_[set >> 6] >> (set & 63)) & 1;
  }
  /// The first set at or after `s` whose touched bit is not `t` (nsets
  /// when none): whole bitmap words are skipped at a time.
  std::size_t run_end(std::size_t s, bool t) const {
    const std::uint64_t flip = t ? ~std::uint64_t{0} : 0;
    std::size_t w = s >> 6;
    std::uint64_t m = (touched_[w] ^ flip) & (~std::uint64_t{0} << (s & 63));
    while (m == 0) {
      if (++w == touched_.size()) return nsets_;
      m = touched_[w] ^ flip;
    }
    return std::min<std::size_t>(w * 64 + std::countr_zero(m), nsets_);
  }
  /// A lazily valid set's first insert: its ways become empty.
  [[gnu::noinline]] void zero_set(std::size_t base) {
    std::fill_n(lines_ + base, ways_, Line{0});
    std::fill_n(stamps_ + base, ways_, std::uint64_t{0});
  }
  template <typename Fn>
  void for_each_touched_set(Fn&& fn) const {
    for (std::size_t w = 0; w < touched_.size(); ++w) {
      for (std::uint64_t m = touched_[w]; m != 0; m &= m - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
  }

  int ways_;
  bool lazy_;
  std::uint64_t nsets_;
  std::uint64_t mask_ = 0;  // nsets - 1 when nsets is a power of two
  std::uint64_t clock_ = 0;
  std::uint64_t resident_ = 0;
  std::unique_ptr<std::uint64_t[]> planes_;  // tags, a pad line, stamps
  Line* lines_ = nullptr;                    // tag plane, nsets*ways
  std::uint64_t* stamps_ = nullptr;          // LRU plane, 0 = empty way
  std::vector<std::uint64_t> touched_;       // one bit per set
};

}  // namespace capmem::sim
