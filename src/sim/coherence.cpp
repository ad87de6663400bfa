#include "sim/coherence.hpp"

#include <bit>

#include "common/check.hpp"

namespace capmem::sim {

const char* to_string(TileState s) {
  switch (s) {
    case TileState::kI: return "I";
    case TileState::kS: return "S";
    case TileState::kE: return "E";
    case TileState::kM: return "M";
    case TileState::kF: return "F";
    case TileState::kO: return "O";
  }
  return "?";
}

TileState Directory::state_in_tile(const LineEntry& e, int tile) {
  if (!e.present_in_tile(tile)) return TileState::kI;
  if (e.owner == tile) {
    // A dirty owner with other sharers is MOSI's O state; under
    // MESIF/MESI an owned line never has sharers, so this stays M/E.
    if (e.dirty)
      return (e.l2_mask & (e.l2_mask - 1)) != 0 ? TileState::kO
                                                : TileState::kM;
    return TileState::kE;
  }
  if (e.forward == tile) return TileState::kF;
  return TileState::kS;
}

TileState Directory::state_in_tile(Line line, int tile) const {
  const LineEntry* e = find(line);
  if (e == nullptr) return TileState::kI;
  return state_in_tile(*e, tile);
}

void Directory::check_entry(const LineEntry& e) {
  if (e.owner >= 0) {
    // M/E: exactly one L2 copy, held by the owner; no forwarder.
    CAPMEM_CHECK_MSG(std::popcount(e.l2_mask) == 1,
                     "owned line has " << std::popcount(e.l2_mask)
                                       << " L2 copies");
    CAPMEM_CHECK(e.present_in_tile(e.owner));
    CAPMEM_CHECK(e.forward == -1);
  } else {
    // S/F or I: clean everywhere; forwarder, if any, must be a sharer.
    CAPMEM_CHECK(!e.dirty);
    if (e.forward >= 0) CAPMEM_CHECK(e.present_in_tile(e.forward));
    if (e.l2_mask == 0) CAPMEM_CHECK(e.forward == -1);
  }
}

void Directory::check_entry(const LineEntry& e, const ProtocolRules& rules) {
  if (rules.protocol == Protocol::kMesif) return check_entry(e);
  if (e.owner >= 0) {
    CAPMEM_CHECK_MSG(e.present_in_tile(e.owner),
                     "owned line absent from the owner's L2");
    if (rules.dirty_shared) {
      // O: sharers are legal, but only while the owner is dirty (a clean
      // owner with sharers would be an unreachable hybrid of E and S).
      CAPMEM_CHECK_MSG(e.dirty || std::popcount(e.l2_mask) == 1,
                       "clean owned line has "
                           << std::popcount(e.l2_mask) << " L2 copies");
    } else {
      CAPMEM_CHECK_MSG(std::popcount(e.l2_mask) == 1,
                       "owned line has " << std::popcount(e.l2_mask)
                                         << " L2 copies");
    }
    if (!rules.has_exclusive) {
      CAPMEM_CHECK_MSG(e.dirty, "protocol has no E state: clean owned line");
    }
    CAPMEM_CHECK_MSG(e.forward == -1, "owned line has a forwarder");
  } else {
    CAPMEM_CHECK_MSG(!e.dirty, "dirty line without an owner");
    if (!rules.has_forward) {
      CAPMEM_CHECK_MSG(e.forward == -1,
                       "protocol has no F state: line has a forwarder");
    }
    if (e.forward >= 0) CAPMEM_CHECK(e.present_in_tile(e.forward));
    if (e.l2_mask == 0) CAPMEM_CHECK(e.forward == -1);
  }
}

void Directory::check_invariants(Line line) const {
  const LineEntry* e = find(line);
  if (e != nullptr) check_entry(*e, *rules_);
}

}  // namespace capmem::sim
