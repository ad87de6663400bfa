// Address-ordered page table mapping cache-line indices to per-line records:
// the directory's LineEntry storage.
//
// Streaming runs create and drop directory entries in address order (every
// line of a freshly flushed buffer is new, and its neighbours were just
// touched). A hashed per-line table scatters those entries over a multi-MB
// slot array and value pool, so each insert pays two or more dependent host
// misses. Here lines are grouped into pages of 64 consecutive lines (page
// number line >> 6):
//   * a page is one 64-byte-aligned block: a 64-bit live mask, then the 64
//     value slots in line order, so neighbouring lines share host memory;
//   * a small LineTable<std::uint32_t> maps page number to page slot, with a
//     one-page memo in front; at stream footprints it indexes ~10k pages and
//     stays host-cache resident;
//   * a handle is page_slot << 6 | (line & 63). Pages never move, so handles
//     and references stay valid while their line is live;
//   * insert sets the line's live bit and resets its slot; erase clears the
//     bit. A page whose last line drops leaves the index and goes back to a
//     free list, so the pool plateaus at the peak live page count. Dead
//     slots keep their last value until reused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/line_table.hpp"

namespace capmem::sim {

template <typename Value>
class LinePages {
 public:
  /// page_slot << kPageShift | (line & 63); kNoHandle marks "absent".
  using Handle = std::uint32_t;
  static constexpr Handle kNoHandle = 0xffffffffu;
  static constexpr unsigned kPageShift = 6;
  static constexpr std::uint64_t kPageLines = std::uint64_t{1} << kPageShift;

  LinePages() = default;
  LinePages(const LinePages&) = delete;
  LinePages& operator=(const LinePages&) = delete;

  /// Live lines.
  std::size_t size() const { return size_; }
  /// Pages ever allocated (live + free-listed). Released pages are reused,
  /// so this plateaus on steady-state workloads.
  std::size_t pool_pages() const { return pages_.size(); }
  /// Pages holding at least one live line.
  std::size_t live_pages() const { return index_.size(); }

  /// Handle of `key`'s value, or kNoHandle.
  Handle find_handle(std::uint64_t key) const {
    const Handle slot = page_of(key >> kPageShift);
    if (slot == kNoHandle) return kNoHandle;
    const Handle h = slot << kPageShift | offset(key);
    return (pages_[slot]->live >> offset(key)) & 1u ? h : kNoHandle;
  }

  /// Pointer to the value for `key`, or nullptr.
  Value* find(std::uint64_t key) {
    const Handle h = find_handle(key);
    return h == kNoHandle ? nullptr : &at(h);
  }
  const Value* find(std::uint64_t key) const {
    return const_cast<LinePages*>(this)->find(key);
  }

  /// Handle of `key`'s value, default-constructing it if absent; `second`
  /// is true when it was inserted. The handle stays valid until this exact
  /// key is erased.
  std::pair<Handle, bool> try_emplace(std::uint64_t key) {
    const std::uint64_t page = key >> kPageShift;
    Handle slot = page_of(page);
    if (slot == kNoHandle) slot = open_page(page);
    Page& p = *pages_[slot];
    const Handle h = slot << kPageShift | offset(key);
    const std::uint64_t bit = std::uint64_t{1} << offset(key);
    if ((p.live & bit) != 0) return {h, false};
    p.live |= bit;
    // Reset in place: assigning a temporary of an over-aligned Value would
    // realign the stack on every insert.
    std::destroy_at(&p.values[offset(key)]);
    std::construct_at(&p.values[offset(key)]);
    ++size_;
    return {h, true};
  }

  /// Value for `key`, default-constructing it if absent. The returned
  /// reference stays valid until this exact key is erased.
  Value& get_or_create(std::uint64_t key) { return at(try_emplace(key).first); }

  /// Value behind a live handle (no liveness check).
  Value& at(Handle h) {
    return pages_[h >> kPageShift]->values[h & (kPageLines - 1)];
  }
  const Value& at(Handle h) const {
    return pages_[h >> kPageShift]->values[h & (kPageLines - 1)];
  }

  /// Value behind an untrusted handle, or nullptr when it names no live
  /// line (outside the pool, or a dead slot).
  const Value* resolve(Handle h) const {
    const std::size_t slot = h >> kPageShift;
    if (slot >= pages_.size()) return nullptr;
    const Page& p = *pages_[slot];
    return (p.live >> offset(h)) & 1u ? &p.values[offset(h)] : nullptr;
  }

  /// Removes `key` if present; returns whether it was.
  bool erase(std::uint64_t key) {
    const std::uint64_t page = key >> kPageShift;
    const Handle slot = page_of(page);
    if (slot == kNoHandle) return false;
    Page& p = *pages_[slot];
    const std::uint64_t bit = std::uint64_t{1} << offset(key);
    if ((p.live & bit) == 0) return false;
    p.live &= ~bit;
    --size_;
    if (p.live == 0) {
      index_.erase(page);
      free_.push_back(slot);
      memo_page_ = kNoPage;
    }
    return true;
  }

  /// Visits every live (key, value), in line order within a page; pages in
  /// slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& p : pages_) {
      for (std::uint64_t m = p->live; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
        fn(p->page << kPageShift | i, p->values[i]);
      }
    }
  }

 private:
  struct alignas(64) Page {
    std::uint64_t live = 0;  ///< bit i: line page << 6 | i is live
    std::uint64_t page = 0;  ///< page number (line >> 6)
    alignas(64) Value values[kPageLines];
  };

  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

  static unsigned offset(std::uint64_t key_or_handle) {
    return static_cast<unsigned>(key_or_handle & (kPageLines - 1));
  }

  /// Slot of a live page, or kNoHandle.
  Handle page_of(std::uint64_t page) const {
    if (page != memo_page_) {
      const std::uint32_t* slot = index_.find(page);
      if (slot == nullptr) return kNoHandle;
      memo_page_ = page;
      memo_slot_ = *slot;
    }
    return memo_slot_;
  }

  /// Indexes a fresh (empty) page for `page`, reusing a released one first.
  Handle open_page(std::uint64_t page) {
    Handle slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      // The last slot's bit-63 handle would alias kNoHandle.
      CAPMEM_CHECK_MSG(pages_.size() < (kNoHandle >> kPageShift),
                       "LinePages pool exhausted");
      slot = static_cast<Handle>(pages_.size());
      pages_.push_back(std::make_unique<Page>());
    }
    pages_[slot]->page = page;
    index_.get_or_create(page) = slot;
    memo_page_ = page;
    memo_slot_ = slot;
    return slot;
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<Handle> free_;
  LineTable<std::uint32_t> index_;
  mutable std::uint64_t memo_page_ = kNoPage;
  mutable Handle memo_slot_ = kNoHandle;
  std::size_t size_ = 0;
};

}  // namespace capmem::sim
