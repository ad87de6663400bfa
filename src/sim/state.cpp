// Export/import of component state for capmem::snap (see sim/state.hpp for
// the capture-vs-restore semantics). Everything here is cold path: it runs
// once per checkpoint, never per simulated access, so clarity and
// deterministic ordering win over speed.

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

void McdramCache::import_state(const state::McdramState& s) {
  if (!s.tags.empty()) {
    CAPMEM_CHECK_MSG(enabled(),
                     "snapshot carries MCDRAM-cache tags but the target "
                     "machine's memory-side cache is disabled");
  }
  tags_.clear();
  for (const auto& [set, line] : s.tags) {
    CAPMEM_CHECK_MSG(set < sets_count_, "MCDRAM-cache tag set "
                                            << set << " out of range (have "
                                            << sets_count_ << " sets)");
    // First record per set wins (a duplicated set never overwrites).
    const auto [h, inserted] = tags_.try_emplace(set);
    if (inserted) tags_.at(h) = line;
  }
}

// ------------------------------------------------------------- Directory

std::vector<state::DirEntryState> Directory::export_state() const {
  std::vector<state::DirEntryState> out;
  out.reserve(map_.size());
  map_.for_each([&out](Line line, const LineEntry& e) {
    state::DirEntryState d;
    d.line = line;
    d.l2_mask = e.l2_mask;
    d.l1_mask = e.l1_mask;
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

void Directory::import_state(const std::vector<state::DirEntryState>& entries) {
  clear();
  last_line_ = ~0ull;
  for (const state::DirEntryState& d : entries) {
    // LineEntry stores tile indices as int8_t; refuse values that would not
    // survive the narrowing instead of silently wrapping them.
    CAPMEM_CHECK_MSG(d.owner >= -1 && d.owner < kMaxCoherenceTiles &&
                         d.forward >= -1 && d.forward < kMaxCoherenceTiles,
                     "directory entry for line "
                         << d.line << " names tile owner=" << d.owner
                         << " forward=" << d.forward << " out of range");
    LineEntry& e = map_.get_or_create(d.line);
    e.l2_mask = d.l2_mask;
    e.l1_mask = d.l1_mask;
    e.owner = static_cast<std::int8_t>(d.owner);
    e.forward = static_cast<std::int8_t>(d.forward);
    e.dirty = d.dirty != 0;
    e.service_available = d.service_available;
    e.last_write_visible = d.last_write_visible;
    e.version = d.version;
    // The memoized physical target is derived data: leave it invalid so the
    // first access after restore recomputes it from the address map.
    e.target_valid = false;
    check_entry(e, *rules_);
  }
}

// ---------------------------------------------------------- AddressSpace

const Allocation* AddressSpace::find_by_name(const std::string& name) const {
  for (const auto& [base, slot] : allocs_) {
    if (slot.info.name == name) return &slot.info;
  }
  return nullptr;
}

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

void AddressSpace::import_state(const state::SpaceState& s) {
  CAPMEM_CHECK_MSG(allocs_.empty() && next_ == kBase,
                   "AddressSpace::import_state requires a fresh space");
  CAPMEM_CHECK(s.next >= kBase);
  for (const state::AllocState& a : s.allocs) {
    Slot slot;
    slot.info.base = a.base;
    slot.info.bytes = a.bytes;
    slot.info.place.kind = static_cast<MemKind>(a.mem_kind);
    if (a.domain >= 0) slot.info.place.domain = a.domain;
    slot.info.name = a.name;
    slot.info.has_data = a.has_data != 0;
    if (slot.info.has_data) {
      CAPMEM_CHECK_MSG(a.data.size() == a.bytes,
                       "allocation '" << a.name << "' carries "
                                      << a.data.size() << " data bytes for a "
                                      << a.bytes << "-byte buffer");
      slot.storage.resize(a.data.size());
      for (std::size_t i = 0; i < a.data.size(); ++i) {
        slot.storage[i] = static_cast<std::byte>(a.data[i]);
      }
    }
    allocs_.emplace(a.base, std::move(slot));
  }
  next_ = s.next;
  last_ = nullptr;
}

// ------------------------------------------------------------- MemSystem

state::MemSysState MemSystem::export_state() const {
  state::MemSysState s;
  s.directory = dir_.export_state();
  s.mc_cache = mc_cache_.export_state();
  s.dram = dram_.export_state();
  s.mcdram = mcdram_.export_state();
  s.l1.reserve(l1_.size());
  for (const SetAssocCache& c : l1_) s.l1.push_back(c.export_state());
  s.l2.reserve(l2_.size());
  for (const SetAssocCache& c : l2_) s.l2.push_back(c.export_state());
  s.core_ports.reserve(core_ports_.size());
  for (const Reservation& r : core_ports_) {
    s.core_ports.push_back(r.export_state());
  }
  s.l2_supply.reserve(l2_supply_.size());
  for (const Reservation& r : l2_supply_) {
    s.l2_supply.push_back(r.export_state());
  }
  s.counters.reserve(counters_.size());
  for (const ThreadCounters& c : counters_) {
    state::CountersState cs;
    cs.v = {c.l1_hits,       c.l2_tile_hits,   c.remote_hits,
            c.dram_lines,    c.mcdram_lines,   c.mc_cache_hits,
            c.mc_cache_misses, c.writebacks,   c.invalidations,
            c.line_ops};
    s.counters.push_back(cs);
  }
  s.fault_link_retries = fault_link_retries_;
  s.fault_stuck_hits = fault_stuck_hits_;
  return s;
}

void MemSystem::import_state(const state::MemSysState& s) {
  CAPMEM_CHECK_MSG(s.l1.size() == l1_.size() && s.l2.size() == l2_.size(),
                   "snapshot cache geometry ("
                       << s.l1.size() << " L1s, " << s.l2.size()
                       << " L2s) does not match this machine ("
                       << l1_.size() << " L1s, " << l2_.size() << " L2s)");
  CAPMEM_CHECK(s.core_ports.size() == core_ports_.size());
  CAPMEM_CHECK(s.l2_supply.size() == l2_supply_.size());
  dir_.import_state(s.directory);
  mc_cache_.import_state(s.mc_cache);
  dram_.import_state(s.dram);
  mcdram_.import_state(s.mcdram);
  for (std::size_t i = 0; i < l1_.size(); ++i) l1_[i].import_state(s.l1[i]);
  for (std::size_t i = 0; i < l2_.size(); ++i) l2_[i].import_state(s.l2[i]);
  // Sharer/presence bits index the per-tile and per-core arrays directly
  // (flush_line walks them), so none may name a tile or core this machine
  // does not have.
  const int tiles = static_cast<int>(l2_.size());
  const int cores = static_cast<int>(l1_.size());
  dir_.for_each([&](Line line, const LineEntry& e) {
    CAPMEM_CHECK_MSG((tiles >= 64 || (e.l2_mask >> tiles) == 0) &&
                         (cores >= 64 || (e.l1_mask >> cores) == 0),
                     "directory entry for line "
                         << line << " names tiles/cores beyond this machine");
  });
  // The L1 handle planes are derived data: resolve every resident L1 line
  // to its directory entry. An L1 copy the directory does not list for that
  // core is an inconsistent snapshot; refuse it rather than keep a handle
  // that names no live entry.
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    l1_[c].rebind_handles([&](Line line) {
      const DirHandle h = dir_.find_handle(line);
      CAPMEM_CHECK_MSG(
          h != Directory::kNoEntry && ((dir_.at(h).l1_mask >> c) & 1ull),
          "snapshot L1 of core " << c << " holds line " << line
                                 << " but the directory does not list it "
                                    "there");
      return h;
    });
  }
  for (std::size_t i = 0; i < core_ports_.size(); ++i) {
    core_ports_[i].import_state(s.core_ports[i]);
  }
  for (std::size_t i = 0; i < l2_supply_.size(); ++i) {
    l2_supply_[i].import_state(s.l2_supply[i]);
  }
  counters_.clear();
  counters_.reserve(s.counters.size());
  for (const state::CountersState& cs : s.counters) {
    ThreadCounters c;
    c.l1_hits = cs.v[0];
    c.l2_tile_hits = cs.v[1];
    c.remote_hits = cs.v[2];
    c.dram_lines = cs.v[3];
    c.mcdram_lines = cs.v[4];
    c.mc_cache_hits = cs.v[5];
    c.mc_cache_misses = cs.v[6];
    c.writebacks = cs.v[7];
    c.invalidations = cs.v[8];
    c.line_ops = cs.v[9];
    counters_.push_back(c);
  }
  fault_link_retries_ = s.fault_link_retries;
  fault_stuck_hits_ = s.fault_stuck_hits;
}

}  // namespace capmem::sim
