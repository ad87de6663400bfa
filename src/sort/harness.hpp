// Sort experiment harness (paper Fig. 10): measured sort times next to the
// four model curves (memory model with latency / bandwidth cost, and the
// corresponding full models with the fitted overhead), plus the >10%
// overhead cutoff that marks where the implementation stops being
// memory-bound.
#pragma once

#include <vector>

#include "model/sort_model.hpp"
#include "sort/parallel_sort.hpp"

namespace capmem::sort {

/// Builds the sort model for `cfg` and fits its overhead term from
/// measured 1 KB sorts over `fit_threads` (paper §V.B.2). The fit sorts
/// are independent simulations and run on `jobs` host threads (exec
/// layer); results are bit-identical for any jobs value.
model::SortModel make_sort_model(const sim::MachineConfig& cfg,
                                 const model::CapabilityModel& caps,
                                 sim::MemKind kind,
                                 const std::vector<int>& fit_threads,
                                 const SortOptions& opts = {}, int jobs = 1);

struct SortCurves {
  std::uint64_t bytes = 0;
  std::vector<int> threads;
  std::vector<double> measured_ns;
  std::vector<double> mem_model_lat_ns;
  std::vector<double> mem_model_bw_ns;
  std::vector<double> full_model_lat_ns;
  std::vector<double> full_model_bw_ns;
  /// First thread count whose overhead exceeds 10% of the memory model
  /// (-1: never) — the paper's vertical marker.
  int cutoff_threads = -1;
  bool all_correct = true;
};

/// One measured sort: `bytes` of keys on `threads` threads with buffers in
/// `kind` memory; the rest of the SortOptions is shared by its batch.
struct SortCell {
  std::uint64_t bytes = 0;
  int threads = 1;
  sim::MemKind kind = sim::MemKind::kDDR;
};

/// Runs every cell as one batch on `jobs` host threads (exec layer), the
/// biggest inputs first. Results come back in cell order and are
/// bit-identical for any jobs value: each sort is a pure function of its
/// cell and `opts`.
std::vector<SortRun> run_sorts(const sim::MachineConfig& cfg,
                               const std::vector<SortCell>& cells,
                               const SortOptions& opts = {}, int jobs = 1);

/// Measured-vs-model curves for one input size: runs[i] sorted `bytes` on
/// threads[i] threads with opts.kind buffers. The model curves are pure
/// functions of the model.
SortCurves sort_curves(const model::SortModel& model, std::uint64_t bytes,
                       const std::vector<int>& threads,
                       const std::vector<SortRun>& runs,
                       const SortOptions& opts = {});

}  // namespace capmem::sort
