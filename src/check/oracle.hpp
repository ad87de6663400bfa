// Sequentially-consistent oracle memory for differential testing.
//
// The simulator commits stores in arrival order: coroutine bodies execute
// in nondecreasing virtual time, and a store's value lands in the address
// space at issue, before the access latency elapses. The oracle replays the
// memory system's access stream (Observer::on_access order, which is that
// same arrival order) against a flat model with no caches, no directory and
// no timing, predicting
//   * the directory version counter of every line (writes bump it by
//     exactly one, reads leave it alone, flush/eviction-drop restart it),
//   * the last writer of every line plus that writer's per-line write
//     count — enough for a workload that writes encode(tid, count) values
//     to predict final memory contents without the oracle ever seeing data,
//   * per-line write-issue monotonicity (arrival order never goes
//     backwards for stores; spin-probe reads may legally run "in the
//     future" inside notifications, so reads are exempt).
// Any mismatch between the stream and the model is a recorded Violation.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "check/violation.hpp"
#include "sim/observer.hpp"

namespace capmem::check {

class Oracle {
 public:
  /// Everything the oracle knows about who wrote a line. Survives flushes
  /// and drops (memory keeps its value when caches let go of the line).
  struct WriterInfo {
    int last_tid = -1;              ///< tid of the most recent writer
    std::uint64_t last_count = 0;   ///< that writer's write count at the time
    std::uint64_t total_writes = 0;
    Nanos last_write_start = 0;     ///< arrival time of the latest write
    std::unordered_map<int, std::uint64_t> per_tid;
  };

  /// Feeds one access in execution order; divergences append to `out`.
  void observe(const sim::AccessRecord& rec, std::vector<Violation>& out);

  /// The line's directory entry was dropped / flushed: its version counter
  /// restarts at zero, but memory (and thus writer info) is unaffected.
  void on_drop(sim::Line line) { versions_.erase(line); }
  void on_flush(sim::Line line) { versions_.erase(line); }

  /// Writer info for `line`, or nullptr when it was never written.
  const WriterInfo* writer(sim::Line line) const;

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t writes() const { return writes_; }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> versions_;  // line -> v
  std::unordered_map<std::uint64_t, WriterInfo> writers_;
  std::uint64_t accesses_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace capmem::check
