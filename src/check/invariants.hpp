// Coherence global invariant checking against the live machine state.
//
// Directory::check_entry validates an entry in isolation; this module
// validates the entry *against the machine*: the directory's sharer sets
// must agree with the actual L2 tag arrays, every line in an L1 tag array
// must be in its tile's sharer set (the L1 tags are the only record of L1
// residency, and the hierarchy is inclusive), and the home-CHA mapping
// must resolve every line to the same directory tile for the whole run
// (under all five cluster modes the mapping is a pure function of the
// line). The cross-structure checks are what catch bugs the entry-local
// ones cannot: a stale L2 tag the directory forgot, or an L1 copy in a
// tile with no L2 backing.
//
// The entry-local legality rules are protocol-parametric: the checker is
// built with the machine's ProtocolRules table, so MOSI's dirty-shared
// lines are legal there while MESI's phantom forwarders are not.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "check/violation.hpp"
#include "sim/protocol.hpp"

namespace capmem::sim {
class MemSystem;
struct LineEntry;
}  // namespace capmem::sim

namespace capmem::check {

class InvariantChecker {
 public:
  /// `tiles` / `cores` are the machine's active tile and core counts.
  /// Defaults to the MESIF legality table.
  InvariantChecker(int tiles, int cores)
      : InvariantChecker(tiles, cores,
                         sim::rules_of(sim::Protocol::kMesif)) {}
  InvariantChecker(int tiles, int cores, const sim::ProtocolRules& rules)
      : tiles_(tiles), cores_(cores), rules_(&rules) {}

  /// Entry-local protocol invariants plus the residency cross-check for one
  /// line: single owner (sole copy unless the protocol shares dirty lines),
  /// dirty implies owner, F implies a sharer (and forbidden entirely when
  /// the protocol has no F), directory sharer set == actual L2 residency,
  /// every L1 copy included in the holder tile's sharer set.
  void check_entry(sim::Line line, const sim::LineEntry& e,
                   const sim::MemSystem& mem,
                   std::vector<Violation>& out) const;

  /// Whole-machine sweep: check_entry over every tracked line, plus the
  /// reverse direction — every resident L1/L2 tag must be backed by a
  /// directory entry listing it (catches stale tags of dropped lines).
  void sweep(const sim::MemSystem& mem, std::vector<Violation>& out) const;

  /// Records a home-CHA resolution; a line resolving to two different home
  /// tiles within one run is a violation in every cluster mode.
  void note_home(sim::Line line, int home_tile, std::vector<Violation>& out);

 private:
  int tiles_;
  int cores_;
  const sim::ProtocolRules* rules_;
  std::unordered_map<std::uint64_t, int> homes_;  // line -> home tile
};

}  // namespace capmem::check
