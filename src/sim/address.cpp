#include "sim/address.hpp"

namespace capmem::sim {

Addr AddressSpace::alloc(std::string name, std::uint64_t bytes,
                         Placement place, bool with_data) {
  CAPMEM_CHECK_MSG(bytes > 0, "zero-sized allocation '" << name << "'");
  const std::uint64_t rounded = lines_for(bytes) * kLineBytes;
  Slot slot;
  slot.info.base = next_;
  slot.info.bytes = rounded;
  slot.info.place = place;
  slot.info.name = std::move(name);
  slot.info.has_data = with_data;
  if (with_data) slot.storage.assign(rounded, std::byte{0});
  const Addr base = next_;
  next_ += rounded + kLineBytes;  // guard line between allocations
  allocs_.emplace(base, std::move(slot));
  return base;
}

void AddressSpace::free(Addr base) {
  const auto it = allocs_.find(base);
  CAPMEM_CHECK_MSG(it != allocs_.end(), "free of unknown base " << base);
  if (last_ == &it->second) last_ = nullptr;
  allocs_.erase(it);
}

bool AddressSpace::valid(Addr a) const {
  return const_cast<AddressSpace*>(this)->lookup_slot(a) != nullptr;
}

const Allocation& AddressSpace::find(Addr a) const {
  Slot* slot = const_cast<AddressSpace*>(this)->lookup_slot(a);
  CAPMEM_CHECK_MSG(slot != nullptr, "wild address " << a);
  return slot->info;
}

std::byte* AddressSpace::data(Addr a, std::uint64_t bytes) {
  Slot* slot = lookup_slot(a);
  CAPMEM_CHECK_MSG(slot != nullptr, "wild address " << a);
  CAPMEM_CHECK_MSG(a + bytes <= slot->info.end(),
                   "access [" << a << "," << a + bytes
                              << ") crosses allocation '" << slot->info.name
                              << "'");
  CAPMEM_CHECK_MSG(slot->info.has_data,
                   "data access to dataless allocation '" << slot->info.name
                                                          << "'");
  return slot->storage.data() + (a - slot->info.base);
}

const std::byte* AddressSpace::data(Addr a, std::uint64_t bytes) const {
  return const_cast<AddressSpace*>(this)->data(a, bytes);
}

}  // namespace capmem::sim
