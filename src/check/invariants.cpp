#include "check/invariants.hpp"

#include <bit>
#include <sstream>

#include "sim/memsys.hpp"

namespace capmem::check {

namespace {

void add(std::vector<Violation>& out, sim::Line line,
         const std::string& what) {
  out.push_back(Violation{what, line, -1, 0});
}

}  // namespace

void InvariantChecker::check_entry(sim::Line line, const sim::LineEntry& e,
                                   const sim::MemSystem& mem,
                                   std::vector<Violation>& out) const {
  // Mask width: no bits beyond the active tiles.
  if (tiles_ < 64 && (e.l2_mask >> tiles_) != 0)
    add(out, line, "invariant: l2_mask has bits beyond the active tiles");

  if (e.owner >= 0) {
    // Owned line: the owner holds a copy; unless the protocol shares dirty
    // lines (MOSI's O), it holds the *only* copy. "No line is dirty in two
    // tiles" follows: dirty lives on the unique owner.
    if (e.owner >= tiles_)
      add(out, line, "invariant: owner tile out of range");
    else if (!e.present_in_tile(e.owner)) {
      add(out, line, "invariant: owner has no L2 copy of its line");
    }
    if (rules_->dirty_shared) {
      // MOSI: extra copies are legal only on a dirty (O) line; a clean
      // owned line is M/E bookkeeping the protocol does not have.
      if (!e.dirty && std::popcount(e.l2_mask) != 1) {
        std::ostringstream os;
        os << "invariant: clean owned line has " << std::popcount(e.l2_mask)
           << " L2 copies, mask=" << e.l2_mask << " owner=" << int{e.owner};
        add(out, line, os.str());
      }
    } else if (std::popcount(e.l2_mask) != 1) {
      std::ostringstream os;
      os << "invariant: owned (" << (e.dirty ? "M" : "E")
         << ") line must have exactly the owner's L2 copy, mask="
         << e.l2_mask << " owner=" << int{e.owner};
      add(out, line, os.str());
    }
    if (!rules_->has_exclusive && !e.dirty)
      add(out, line,
          "invariant: protocol has no E state, yet a clean line is owned");
    if (e.forward != -1)
      add(out, line, "invariant: owned line has a forwarder");
  } else {
    if (e.dirty)
      add(out, line, "invariant: dirty line without an owner");
    if (!rules_->has_forward && e.forward != -1)
      add(out, line,
          "invariant: protocol has no F state, yet a forwarder is set");
    if (e.forward >= 0) {
      // F implies at least one sharer — the forwarder itself.
      if (e.forward >= tiles_ || !e.present_in_tile(e.forward))
        add(out, line, "invariant: forwarder is not a sharer");
    }
    if (e.l2_mask == 0 && e.forward != -1)
      add(out, line, "invariant: globally invalid line has a forwarder");
  }

  // Directory sharer set vs the actual L2 tag arrays, both directions. The
  // superset direction (a mask bit with no tag) is a phantom sharer; the
  // subset direction (a tag with no mask bit) is a stale copy that will
  // serve data the protocol no longer guarantees.
  for (int t = 0; t < tiles_; ++t) {
    const bool claimed = (e.l2_mask >> t) & 1ull;
    const bool resident = mem.line_in_l2(t, line);
    if (claimed == resident) continue;
    std::ostringstream os;
    os << "invariant: "
       << (claimed ? "directory claims an L2 copy tile " + std::to_string(t)
                       + " does not hold"
                   : "stale L2 copy in tile " + std::to_string(t)
                       + " the directory forgot");
    add(out, line, os.str());
  }

  // L1 copies (the L1 tag arrays are their only record) must be included
  // in the holder tile's L2 residency: the hierarchy is inclusive.
  for (int c = 0; c < cores_; ++c) {
    if (mem.line_in_l1(c, line) && !e.present_in_tile(mem.tile_of_core(c))) {
      std::ostringstream os;
      os << "invariant: L1 copy in core " << c
         << " without L2 backing in its tile";
      add(out, line, os.str());
    }
  }
}

void InvariantChecker::sweep(const sim::MemSystem& mem,
                             std::vector<Violation>& out) const {
  mem.directory().for_each(
      [&](std::uint64_t line, const sim::LineEntry& e) {
        check_entry(line, e, mem, out);
      });

  // Reverse direction: tags with no directory backing. The per-entry check
  // cannot see these once the entry itself has been dropped.
  for (int t = 0; t < tiles_; ++t) {
    mem.l2_cache(t).for_each_line([&](sim::Line line) {
      const sim::LineEntry* e = mem.directory().find(line);
      if (e == nullptr || !e->present_in_tile(t)) {
        std::ostringstream os;
        os << "invariant: L2 tag in tile " << t
           << " with no directory record";
        add(out, line, os.str());
      }
    });
  }
  // Inclusion over the L1 tag arrays: every resident L1 line has an entry
  // whose sharer set holds the core's tile.
  for (int c = 0; c < cores_; ++c) {
    const int tile = mem.tile_of_core(c);
    mem.l1_cache(c).for_each_line([&](sim::Line line) {
      const sim::LineEntry* e = mem.directory().find(line);
      if (e == nullptr || !e->present_in_tile(tile)) {
        std::ostringstream os;
        os << "invariant: L1 tag in core " << c
           << " with no L2 backing in tile " << tile
           << " per the directory";
        add(out, line, os.str());
      }
    });
  }
}

void InvariantChecker::note_home(sim::Line line, int home_tile,
                                 std::vector<Violation>& out) {
  if (home_tile < 0 || home_tile >= tiles_) {
    std::ostringstream os;
    os << "invariant: home CHA " << home_tile << " out of range";
    add(out, line, os.str());
    return;
  }
  const auto [it, inserted] = homes_.emplace(line, home_tile);
  if (!inserted && it->second != home_tile) {
    std::ostringstream os;
    os << "invariant: home CHA moved from tile " << it->second << " to "
       << home_tile;
    add(out, line, os.str());
  }
}

}  // namespace capmem::check
