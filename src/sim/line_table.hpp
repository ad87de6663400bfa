// Open-addressing hash table keyed by 64-bit line (or set/page) numbers.
//
// It backs the engine's park table, the MCDRAM-cache tags and the page index
// of the directory's LinePages (sim/line_pages.hpp). std::unordered_map's
// node-based layout was measured at >60% of total runtime when it held the
// directory. Design:
//   * linear probing over a power-of-two slot array of (key, index) pairs —
//     16 bytes per slot, cache friendly;
//   * values live in a chunked pool with a free list: fixed ~16 KiB chunks
//     of a power-of-two entry count, 64-byte aligned, addressed as
//     chunks_[i >> kShift][i & kMask]. The chunk-pointer table is a few KB
//     even for multi-million-entry tables, so it stays cache-resident and a
//     lookup costs two dependent host misses (slot, entry), not three.
//     Chunks never move, so references to live entries — and their pool
//     indices (handles) — are NEVER invalidated by other inserts, erases or
//     a rehash;
//   * erase uses backward-shift deletion (no tombstones, no degradation);
//   * nothing is allocated until the first insert: an empty table probes a
//     shared read-only sentinel slot, so idle tables (a disabled MCDRAM
//     cache, an engine that never parks) cost no memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace capmem::sim {

template <typename Value>
class LineTable {
 public:
  /// Stable pool index of a live entry; kNoHandle marks "absent".
  using Handle = std::uint32_t;
  static constexpr Handle kNoHandle = 0xffffffffu;

  LineTable() = default;
  LineTable(const LineTable&) = delete;
  LineTable& operator=(const LineTable&) = delete;
  ~LineTable() { destroy_values(); }

  std::size_t size() const { return size_; }

  /// Value slots ever allocated (live + free-listed). Erased slots are
  /// reused, so this plateaus on steady-state workloads; memory-stability
  /// tests gauge it.
  std::size_t pool_slots() const { return pool_size_; }

  /// Pointer to the value for `key`, or nullptr.
  Value* find(std::uint64_t key) {
    std::size_t i = probe_start(key);
    while (slots_[i].idx != kNoHandle) {
      if (slots_[i].key == key) return &at(slots_[i].idx);
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const Value* find(std::uint64_t key) const {
    return const_cast<LineTable*>(this)->find(key);
  }

  /// Handle of `key`'s value, default-constructing it if absent; `second`
  /// is true when it was inserted. The handle stays valid until this exact
  /// key is erased.
  std::pair<Handle, bool> try_emplace(std::uint64_t key) {
    if (size_ + size_ / 4 >= capacity_)
      rehash(capacity_ == 0 ? kInitialSlots : capacity_ * 2);
    std::size_t i = probe_start(key);
    while (slots_[i].idx != kNoHandle) {
      if (slots_[i].key == key) return {slots_[i].idx, false};
      i = (i + 1) & mask_;
    }
    Handle idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      at(idx) = Value{};
    } else {
      idx = grow_pool();
    }
    slots_[i] = Slot{key, idx};
    ++size_;
    return {idx, true};
  }

  /// Value for `key`, default-constructing it if absent. The returned
  /// reference stays valid until this exact key is erased.
  Value& get_or_create(std::uint64_t key) { return at(try_emplace(key).first); }

  /// Value behind a live handle (no liveness check).
  Value& at(Handle h) { return chunks_[h >> kShift].get()[h & kMask]; }
  const Value& at(Handle h) const {
    return chunks_[h >> kShift].get()[h & kMask];
  }
  /// Removes `key` if present; returns whether it was.
  bool erase(std::uint64_t key) {
    std::size_t i = probe_start(key);
    while (slots_[i].idx != kNoHandle) {
      if (slots_[i].key == key) {
        free_.push_back(slots_[i].idx);
        backward_shift(i);
        --size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  /// Visits every (key, value). Order unspecified.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (slots_[i].idx != kNoHandle) fn(slots_[i].key, at(slots_[i].idx));
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    Handle idx = kNoHandle;
  };

  static constexpr std::size_t kInitialSlots = 1024;
  static constexpr std::size_t kChunkAlign = 64;
  static constexpr std::size_t kChunkTargetBytes = 16 * 1024;
  // Entries per chunk: the largest power of two fitting the target size.
  static constexpr unsigned kShift = [] {
    unsigned s = 0;
    while ((sizeof(Value) << (s + 1)) <= kChunkTargetBytes) ++s;
    return s;
  }();
  static constexpr std::size_t kChunkEntries = std::size_t{1} << kShift;
  static constexpr Handle kMask = static_cast<Handle>(kChunkEntries - 1);

  struct ChunkFree {
    void operator()(Value* p) const {
      ::operator delete(p, std::align_val_t{kChunkAlign});
    }
  };
  using Chunk = std::unique_ptr<Value, ChunkFree>;

  /// Read-only stand-in for the slot array of a never-filled table: its
  /// single empty slot ends every probe (mask 0), and nothing writes to it
  /// because every writer first grows a real array.
  static inline Slot empty_slot_{};

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
    return x;
  }
  std::size_t probe_start(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  /// Appends a default-constructed value, allocating a chunk on demand.
  Handle grow_pool() {
    CAPMEM_CHECK_MSG(pool_size_ < kNoHandle, "LineTable pool exhausted");
    const Handle idx = static_cast<Handle>(pool_size_);
    if ((idx >> kShift) == chunks_.size()) {
      chunks_.emplace_back(static_cast<Value*>(::operator new(
          kChunkEntries * sizeof(Value), std::align_val_t{kChunkAlign})));
    }
    ::new (static_cast<void*>(&at(idx))) Value();
    ++pool_size_;
    return idx;
  }

  void destroy_values() {
    if constexpr (!std::is_trivially_destructible_v<Value>) {
      for (std::size_t i = 0; i < pool_size_; ++i)
        at(static_cast<Handle>(i)).~Value();
    }
  }

  void backward_shift(std::size_t hole) {
    std::size_t i = hole;
    while (true) {
      i = (i + 1) & mask_;
      if (slots_[i].idx == kNoHandle) break;
      const std::size_t home = probe_start(slots_[i].key);
      // Move slot i into the hole unless it sits between home and hole
      // (cyclic test: the element must probe *through* the hole).
      const bool movable =
          ((i - home) & mask_) >= ((i - hole) & mask_);
      if (movable) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
  }

  void rehash(std::size_t new_cap) {
    CAPMEM_CHECK((new_cap & (new_cap - 1)) == 0);
    std::unique_ptr<Slot[]> old = std::move(slot_store_);
    const std::size_t old_cap = capacity_;
    slot_store_ = std::make_unique<Slot[]>(new_cap);
    slots_ = slot_store_.get();
    capacity_ = new_cap;
    mask_ = new_cap - 1;
    for (std::size_t j = 0; j < old_cap; ++j) {
      const Slot& s = old[j];
      if (s.idx == kNoHandle) continue;
      std::size_t i = probe_start(s.key);
      while (slots_[i].idx != kNoHandle) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  Slot* slots_ = &empty_slot_;
  std::unique_ptr<Slot[]> slot_store_;
  std::size_t capacity_ = 0;
  std::vector<Chunk> chunks_;
  std::size_t pool_size_ = 0;
  std::vector<Handle> free_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace capmem::sim
