// Width-16 bitonic networks on int32 (paper §V.B: "we implement the merge
// with a bitonic network of width 16 (for integers) to take advantage of
// vector instructions — hence, we always fetch full lines").
//
// The networks really sort/merge host data; alongside the result they
// report the AVX-512-style vector-operation count, which the simulator
// charges as compute time (one 16-lane min/max or shuffle per operation).
// On the host they run as branch-free vector code on 4 x 128-bit int32
// lanes (baseline SSE2); sorting and merging have one correct output, so
// the host form never changes a simulated result.
#pragma once

#include <array>
#include <cstdint>

namespace capmem::sort {

/// 16 int32 values = one 64-byte cache line.
using Vec16 = std::array<std::int32_t, 16>;

/// Vector ops consumed by one sort16 (Batcher bitonic sorting network:
/// 10 compare-exchange stages, each a min+max+two-shuffle group).
inline constexpr int kSort16VectorOps = 40;
/// Vector ops of one merge16 step (5 compare-exchange stages).
inline constexpr int kMerge16VectorOps = 20;

/// Nanoseconds per vector operation on the modeled core (1.3 GHz, 2 VPUs).
inline constexpr double kNsPerVectorOp = 0.385;

/// Sorts 16 values in place: a 4-input network per column, a transpose,
/// then bitonic merges of the sorted runs of 4 and of 8.
void sort16(Vec16& v);

/// Bitonic merge of two *sorted* vectors: afterwards `lo` holds the 16
/// smallest of the 32 inputs (sorted) and `hi` the 16 largest (sorted).
void merge16(Vec16& lo, Vec16& hi);

/// Compute cost (ns) helpers used by both the simulator charge and the
/// analytic sort model.
inline double sort16_ns() { return kSort16VectorOps * kNsPerVectorOp; }
inline double merge16_ns() { return kMerge16VectorOps * kNsPerVectorOp; }

}  // namespace capmem::sort
