// Memory-side MCDRAM cache model for the cache and hybrid memory modes
// (paper §II.C): direct mapped on physical line addresses, 64 B lines,
// inclusive of all modified L2 lines (write-backs go to MCDRAM), with a
// snoop before evicting a line that may be modified in an L2.
//
// Only touched sets are materialized (a set -> resident-line LineTable, the
// same flat table as the engine park table), so a full-size (16 GB) cache
// costs host memory proportional to the working set, not the capacity, and
// a disabled (flat-mode) cache allocates nothing.
#pragma once

#include <cstdint>
#include <optional>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/address.hpp"
#include "sim/line_table.hpp"
#include "sim/state.hpp"

namespace capmem::sim {

class McdramCache {
 public:
  /// `capacity_bytes` rounded down to whole lines; 0 disables the cache
  /// (flat mode).
  explicit McdramCache(std::uint64_t capacity_bytes);

  bool enabled() const { return sets_count_ > 0; }
  std::uint64_t sets() const { return sets_count_; }

  /// Result of looking up / filling one line.
  struct Access {
    bool hit = false;
    /// Line evicted by a fill (direct-mapped conflict), if any.
    std::optional<Line> evicted;
  };

  /// Probe without filling.
  bool probe(Line line) const;

  /// Probe and, on miss, fill (data read from DDR is sent to MCDRAM and the
  /// requesting tile simultaneously, so every miss fills).
  Access access(Line line);

  /// Write-back from an L2 lands in MCDRAM (the cache is inclusive of
  /// modified lines); same fill behaviour.
  Access write_back(Line line) { return access(line); }

  /// Invalidate (benchmark flush support).
  void erase(Line line);
  void clear();

  std::uint64_t resident_lines() const { return tags_.size(); }

  /// Checkpoint support (capmem::snap). The hash-ordered tag table is
  /// sorted by set on export so snapshots are byte-stable across processes.
  state::McdramState export_state() const;

 private:
  std::uint64_t set_of(Line line) const { return line % sets_count_; }
  std::uint64_t sets_count_;
  LineTable<Line> tags_;  // set -> resident line
};

}  // namespace capmem::sim
