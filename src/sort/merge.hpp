// Timed merge of sorted int32 runs on the simulated machine (paper §V.B.1:
// each merge reads two lists of n/2 lines and writes n lines; after the
// first fetched pair, every step reads one line, runs the bitonic network,
// and writes one line).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/machine.hpp"
#include "sort/bitonic_net.hpp"

namespace capmem::sort {

/// A run of whole lines inside one data-carrying allocation, resolved once
/// per op: the allocation's placement and the run's backing bytes. Merging
/// alternates between the source and destination buffers line by line,
/// which defeats the machine's one-entry allocation memo, so per-line
/// lookups would each walk the allocation table.
struct LineRun {
  sim::Addr base = 0;
  sim::Placement place;
  std::byte* bytes = nullptr;

  /// The run of `lines` lines at `base`; throws CheckError unless it lies
  /// inside one data-carrying allocation.
  static LineRun resolve(sim::Machine& m, sim::Addr base,
                         std::uint64_t lines);
  sim::Addr line_addr(std::uint64_t i) const { return base + i * kLineBytes; }
  std::byte* line_bytes(std::uint64_t i) const {
    return bytes + i * kLineBytes;
  }
};

/// Merges the sorted runs [in1, in1_lines) and [in2, in2_lines) into `out`
/// (disjoint from the inputs). All sizes in cache lines (16 int32 each).
/// Charges one streaming read per input line, one streaming write per
/// output line, and the bitonic-network compute. Must be co_awaited from a
/// simulated thread... implemented as a Task-composable step sequence via
/// the owning coroutine: call as
///   co_await merge_runs(ctx, out, in1, n1, in2, n2, opts);
struct MergeOp {
  MergeOp(sim::Ctx* c, sim::Addr o, sim::Addr a, std::uint64_t na,
          sim::Addr b, std::uint64_t nb, bool non_temporal)
      : ctx(c), out(o), in1(a), n1(na), in2(b), n2(nb), nt(non_temporal) {}

  sim::Ctx* ctx;
  sim::Addr out;
  sim::Addr in1;
  std::uint64_t n1;
  sim::Addr in2;
  std::uint64_t n2;
  bool nt = false;

  // Awaiter state machine: the whole merge runs inside engine callbacks,
  // the owning task stays suspended (same pattern as RangeOp).
  bool await_ready() const noexcept { return false; }
  void await_suspend(sim::Task::Handle h);
  void await_resume() const noexcept {}

 private:
  void step(sim::Task::Handle h);
  /// (Re)resolves the three runs when the address space changed since the
  /// last resolution.
  void resolve();

  LineRun r1_, r2_, rout_;
  std::uint64_t space_epoch_ = 0;
  std::uint64_t i1_ = 0, i2_ = 0, iout_ = 0;
  Vec16 cur_{};
  bool primed_ = false;
};

inline MergeOp merge_runs(sim::Ctx& ctx, sim::Addr out, sim::Addr in1,
                          std::uint64_t n1, sim::Addr in2, std::uint64_t n2,
                          bool nt = false) {
  return MergeOp{&ctx, out, in1, n1, in2, n2, nt};
}

/// Sorts each 16-element line of [buf, lines) independently with the
/// bitonic sorting network (the sort's leaf stage).
struct SortLinesOp {
  SortLinesOp(sim::Ctx* c, sim::Addr b, std::uint64_t n)
      : ctx(c), buf(b), lines(n) {}

  sim::Ctx* ctx;
  sim::Addr buf;
  std::uint64_t lines;

  bool await_ready() const noexcept { return lines == 0; }
  void await_suspend(sim::Task::Handle h);
  void await_resume() const noexcept {}

 private:
  void step(sim::Task::Handle h);
  LineRun run_;
  std::uint64_t space_epoch_ = 0;
  std::uint64_t done_ = 0;
};

inline SortLinesOp sort_lines(sim::Ctx& ctx, sim::Addr buf,
                              std::uint64_t lines) {
  return SortLinesOp{&ctx, buf, lines};
}

}  // namespace capmem::sort
