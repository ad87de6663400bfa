// Simulated address space and allocation table.
//
// Buffers are allocated out of a single 64-bit virtual space with a bump
// allocator. Each allocation carries its memory-placement policy (which
// physical memory should back it, and the NUMA domain in SNC modes) and,
// optionally, real backing bytes: collectives and the sort operate on actual
// data; pure bandwidth experiments allocate "dataless" buffers so multi-GB
// footprints stay cheap on the host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/config.hpp"
#include "sim/state.hpp"

namespace capmem::sim {

/// Simulated virtual address.
using Addr = std::uint64_t;
/// Cache-line index (Addr / 64).
using Line = std::uint64_t;

inline Line line_of(Addr a) { return a / kLineBytes; }
inline Addr line_base(Addr a) { return a & ~(kLineBytes - 1); }

/// Where an allocation should live.
struct Placement {
  /// Physical memory to use. In cache mode everything is DDR-backed (the
  /// MCDRAM is a memory-side cache); asking for MCDRAM there is an error.
  MemKind kind = MemKind::kDDR;
  /// NUMA domain for SNC modes: nullopt = interleave across all domains
  /// (the paper's benchmarks are "not NUMA-aware" in SNC), otherwise the
  /// contiguous range of the given domain is used.
  std::optional<int> domain;
};

/// One allocation.
struct Allocation {
  Addr base = 0;
  std::uint64_t bytes = 0;
  Placement place;
  std::string name;
  bool has_data = false;

  Addr end() const { return base + bytes; }
  bool contains(Addr a) const { return a >= base && a < end(); }
};

/// Allocation table plus backing storage for data-carrying buffers.
class AddressSpace {
 public:
  AddressSpace() = default;
  // Non-copyable: the lookup hint points into this space's own map.
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Allocates `bytes` (rounded up to whole lines), line-aligned.
  Addr alloc(std::string name, std::uint64_t bytes, Placement place,
             bool with_data);

  /// Releases an allocation (tests use this; the table never reuses VA).
  void free(Addr base);

  /// Allocation covering `a`; throws on wild addresses.
  const Allocation& find(Addr a) const;
  bool valid(Addr a) const;

  /// Checkpoint support (capmem::snap): the full table including backing
  /// bytes, plus the bump cursor.
  state::SpaceState export_state() const;

  /// Raw data access for data-carrying allocations. `bytes` must stay
  /// inside one allocation.
  std::byte* data(Addr a, std::uint64_t bytes);
  const std::byte* data(Addr a, std::uint64_t bytes) const;

  template <typename T>
  T load(Addr a) const {
    T v;
    __builtin_memcpy(&v, data(a, sizeof(T)), sizeof(T));
    return v;
  }
  template <typename T>
  void store(Addr a, const T& v) {
    __builtin_memcpy(data(a, sizeof(T)), &v, sizeof(T));
  }

  std::uint64_t total_allocated() const { return next_ - kBase; }
  std::size_t allocation_count() const { return allocs_.size(); }

 private:
  struct Slot {
    Allocation info;
    std::vector<std::byte> storage;  // empty when !has_data
  };
  /// Slot covering `a`, or nullptr. Caches the last hit: accesses cluster
  /// heavily within one buffer, so most lookups skip the tree walk
  /// (map nodes are stable, the cache is only dropped on free()).
  Slot* lookup_slot(Addr a) {
    if (last_ != nullptr && last_->info.contains(a)) return last_;
    auto it = allocs_.upper_bound(a);
    if (it == allocs_.begin()) return nullptr;
    --it;
    if (!it->second.info.contains(a)) return nullptr;
    last_ = &it->second;
    return last_;
  }

  static constexpr Addr kBase = 0x10000;  // keep 0 invalid
  Addr next_ = kBase;
  std::map<Addr, Slot> allocs_;  // keyed by base
  Slot* last_ = nullptr;  // lookup hint into allocs_
};

}  // namespace capmem::sim
