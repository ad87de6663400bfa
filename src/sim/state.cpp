// Export of component state for capmem::snap (see sim/state.hpp). Everything
// here is cold path: it runs once per capture, never per simulated access,
// so clarity and deterministic ordering win over speed.

#include "sim/state.hpp"

#include <algorithm>

#include "sim/address.hpp"
#include "sim/coherence.hpp"
#include "sim/mcdram_cache.hpp"
#include "sim/memsys.hpp"

namespace capmem::sim {

// ----------------------------------------------------------- McdramCache

state::McdramState McdramCache::export_state() const {
  state::McdramState s;
  s.tags.reserve(tags_.size());
  tags_.for_each([&s](std::uint64_t set, const Line& line) {
    s.tags.push_back({set, line});
  });
  std::sort(s.tags.begin(), s.tags.end());
  return s;
}

// ------------------------------------------------------------- Directory

std::vector<state::DirEntryState> Directory::export_state() const {
  std::vector<state::DirEntryState> out;
  out.reserve(map_.size());
  map_.for_each([&out](Line line, const LineEntry& e) {
    state::DirEntryState d;
    d.line = line;
    d.l2_mask = e.l2_mask;
    d.owner = e.owner;
    d.forward = e.forward;
    d.dirty = e.dirty ? 1 : 0;
    d.service_available = e.service_available;
    d.last_write_visible = e.last_write_visible;
    d.version = e.version;
    out.push_back(d);
  });
  std::sort(out.begin(), out.end(),
            [](const state::DirEntryState& a, const state::DirEntryState& b) {
              return a.line < b.line;
            });
  return out;
}

// ---------------------------------------------------------- AddressSpace

state::SpaceState AddressSpace::export_state() const {
  state::SpaceState s;
  s.next = next_;
  s.allocs.reserve(allocs_.size());
  for (const auto& [base, slot] : allocs_) {  // std::map: sorted by base
    state::AllocState a;
    a.base = slot.info.base;
    a.bytes = slot.info.bytes;
    a.mem_kind = static_cast<std::uint8_t>(slot.info.place.kind);
    a.domain = slot.info.place.domain.value_or(-1);
    a.has_data = slot.info.has_data ? 1 : 0;
    a.name = slot.info.name;
    if (slot.info.has_data) {
      a.data.resize(slot.storage.size());
      for (std::size_t i = 0; i < slot.storage.size(); ++i) {
        a.data[i] = static_cast<std::uint8_t>(slot.storage[i]);
      }
    }
    s.allocs.push_back(std::move(a));
  }
  return s;
}

// ------------------------------------------------------------- MemSystem

state::MemSysState MemSystem::export_state(bool with_cache_planes) const {
  state::MemSysState s;
  s.directory = dir_.export_state();
  // The directory does not record L1 residency: derive each entry's L1
  // presence mask from the L1 tag planes (entries are sorted by line).
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    l1_[c].for_each_line([&](Line line) {
      const auto it = std::lower_bound(
          s.directory.begin(), s.directory.end(), line,
          [](const state::DirEntryState& d, Line l) { return d.line < l; });
      if (it != s.directory.end() && it->line == line)
        it->l1_mask |= 1ull << c;
    });
  }
  s.mc_cache = mc_cache_.export_state();
  s.dram = dram_.export_state();
  s.mcdram = mcdram_.export_state();
  if (with_cache_planes) {
    s.l1.reserve(l1_.size());
    for (const SetAssocCache& c : l1_) s.l1.push_back(c.state());
    s.l2.reserve(l2_.size());
    for (const SetAssocCache& c : l2_) s.l2.push_back(c.state());
  }
  s.core_ports.reserve(core_ports_.size());
  for (const Reservation& r : core_ports_) {
    s.core_ports.push_back(r.export_state());
  }
  s.l2_supply.reserve(l2_supply_.size());
  for (const Reservation& r : l2_supply_) {
    s.l2_supply.push_back(r.export_state());
  }
  s.counters = counters_;
  s.fault_link_retries = fault_link_retries_;
  s.fault_stuck_hits = fault_stuck_hits_;
  return s;
}

}  // namespace capmem::sim
