// Indexed two-level bucket (calendar) queue for the engine's run queue.
//
// The engine pops events in strictly nondecreasing virtual time, and almost
// every push lands within a few hundred nanoseconds of the current time — a
// binary heap pays O(log n) pointer-chasing per event for ordering power it
// never uses. This queue keys events into a power-of-two ring of buckets of
// kBucketNs virtual nanoseconds each; the current window covers buckets
// [base, base + kBuckets). Far-future events overflow into a min-heap and
// are drained into the ring whenever the window advances over them.
//
// Pop order is EXACTLY the total order min(t, then seq) — identical to the
// reference std::priority_queue — which tests/test_event_queue.cpp asserts
// against randomized schedules:
//   * the minimum live entry is always in the lowest occupied bucket (an
//     occupancy bitmap finds it in O(1) word scans); each bucket is a small
//     binary min-heap on (t, seq), so burst buckets (a barrier releasing N
//     tasks at one instant) pop in O(log k) instead of an O(k) scan;
//   * `seq` increments per push, so equal timestamps pop FIFO — the
//     tie-break the simulator's determinism depends on;
//   * a push below the window base (the engine tolerates epsilon-late
//     events) is clamped into the base bucket. That cannot reorder pops:
//     the base bucket is always the next one scanned, and the base only
//     advances over empty buckets, so among live entries a later equal-t
//     push can never land in an earlier bucket;
//   * the overflow heap's minimum is always at or beyond the window end
//     (drained on every base advance), so no ring entry can be beaten by a
//     hidden overflow entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"

namespace capmem::sim {

class EventQueue {
 public:
  struct Entry {
    Nanos t;
    std::uint64_t seq;
    std::uint64_t payload;
    bool operator>(const Entry& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  bool empty() const { return in_window_ == 0 && overflow_.empty(); }
  std::size_t size() const { return in_window_ + overflow_.size(); }

  void push(Nanos t, std::uint64_t payload) {
    CAPMEM_DCHECK(t >= 0);
    const std::uint64_t seq = seq_++;
    if (empty()) base_bucket_ = bucket_of(t);
    std::uint64_t b = bucket_of(t);
    if (b < base_bucket_) b = base_bucket_;  // epsilon-late: see header
    if (b < base_bucket_ + kBuckets) {
      place(b, Entry{t, seq, payload});
    } else {
      overflow_.push_back(Entry{t, seq, payload});
      std::push_heap(overflow_.begin(), overflow_.end(),
                     std::greater<Entry>{});
    }
  }

  /// Visits every live entry (ring + overflow) in unspecified order; the
  /// snapshot layer sorts by (t, seq). Never mutates the queue.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::vector<Entry>& v : ring_) {
      for (const Entry& e : v) fn(e);
    }
    for (const Entry& e : overflow_) fn(e);
  }

  /// Push sequence counter: part of the engine's deterministic identity
  /// (equal-timestamp pops break ties on it), so checkpoints carry it.
  std::uint64_t next_seq() const { return seq_; }

  Entry pop_min() {
    CAPMEM_DCHECK(!empty());
    if (in_window_ == 0) {
      // Ring empty: jump the window to the overflow minimum.
      base_bucket_ = bucket_of(overflow_.front().t);
      drain_overflow();
    }
    const std::size_t base_slot = base_bucket_ & kMask;
    const std::size_t slot = next_occupied(base_slot);
    const std::uint64_t dist = (slot - base_slot) & kMask;
    if (dist > 0) {
      base_bucket_ += dist;
      drain_overflow();
    }
    std::vector<Entry>& v = ring_[slot];
    const Entry e = v.front();
    std::pop_heap(v.begin(), v.end(), std::greater<Entry>{});
    v.pop_back();
    if (v.empty()) clear_bit(slot);
    --in_window_;
    return e;
  }

 private:
  static constexpr std::size_t kBuckets = 1024;  // power of two
  static constexpr std::size_t kMask = kBuckets - 1;
  /// Bucket granularity in virtual ns: fine enough that a typical access
  /// latency (~100-300 ns) spreads over many buckets, wide enough that a
  /// 2 us window catches nearly every push (the rest overflow safely).
  static constexpr double kInvBucketNs = 0.5;  // 1 / 2.0 ns

  static std::uint64_t bucket_of(Nanos t) {
    return static_cast<std::uint64_t>(t * kInvBucketNs);
  }

  void place(std::uint64_t bucket, Entry e) {
    CAPMEM_DCHECK(bucket >= base_bucket_ &&
                  bucket < base_bucket_ + kBuckets);
    const std::size_t slot = bucket & kMask;
    std::vector<Entry>& v = ring_[slot];
    if (v.empty()) set_bit(slot);
    v.push_back(e);
    std::push_heap(v.begin(), v.end(), std::greater<Entry>{});
    ++in_window_;
  }

  /// Moves every overflow entry now inside the window into the ring. The
  /// heap minimum bounds all others, so this is O(1) when nothing drains.
  void drain_overflow() {
    while (!overflow_.empty() &&
           bucket_of(overflow_.front().t) < base_bucket_ + kBuckets) {
      const Entry e = overflow_.front();
      std::pop_heap(overflow_.begin(), overflow_.end(),
                    std::greater<Entry>{});
      overflow_.pop_back();
      place(bucket_of(e.t), e);
    }
  }

  void set_bit(std::size_t slot) {
    occupied_[slot >> 6] |= 1ull << (slot & 63);
  }
  void clear_bit(std::size_t slot) {
    occupied_[slot >> 6] &= ~(1ull << (slot & 63));
  }

  /// First occupied slot at or cyclically after `from` (the window is at
  /// most kBuckets wide, so cyclic slot order equals bucket order).
  std::size_t next_occupied(std::size_t from) const {
    std::size_t w = from >> 6;
    std::uint64_t word = occupied_[w] & (~0ull << (from & 63));
    for (std::size_t n = 0; n <= kWords; ++n) {
      if (word != 0) {
        return (w << 6) + static_cast<std::size_t>(
                              __builtin_ctzll(word));
      }
      w = (w + 1) & (kWords - 1);
      word = occupied_[w];
    }
    CAPMEM_CHECK_MSG(false, "EventQueue: bitmap empty with in_window_ > 0");
  }

  static constexpr std::size_t kWords = kBuckets / 64;

  std::vector<Entry> ring_[kBuckets];
  std::uint64_t occupied_[kWords] = {};
  /// Min-heap (std::push_heap/pop_heap on (t, seq)); a plain vector so
  /// snapshots can walk live entries without draining it.
  std::vector<Entry> overflow_;
  std::uint64_t base_bucket_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t in_window_ = 0;
};

}  // namespace capmem::sim
