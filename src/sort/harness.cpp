#include "sort/harness.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "exec/experiment.hpp"
#include "sort/bitonic_net.hpp"

namespace capmem::sort {

model::SortModel make_sort_model(const sim::MachineConfig& cfg,
                                 const model::CapabilityModel& caps,
                                 sim::MemKind kind,
                                 const std::vector<int>& fit_threads,
                                 const SortOptions& opts, int jobs) {
  model::SortArch arch;
  arch.l1_bytes = cfg.l1_bytes;
  arch.l2_bytes = cfg.l2_bytes;
  arch.threads_per_tile = cfg.cores_per_tile;
  arch.bitonic_ns_per_line = merge16_ns();
  model::SortModel sm(caps, arch);

  // Each fit sort is an isolated simulation; the input data depends only on
  // opts.seed, so fanning them out over host threads changes nothing.
  std::vector<SortCell> cells;
  for (int n : fit_threads) cells.push_back({KiB(1), n, opts.kind});
  const std::vector<SortRun> runs = run_sorts(cfg, cells, opts, jobs);
  std::vector<double> measured;
  for (const SortRun& run : runs) {
    CAPMEM_CHECK_MSG(run.sorted_ok && run.checksum_ok,
                     "1 KB fit sort failed verification");
    measured.push_back(run.total_ns);
  }
  sm.fit_overhead(fit_threads, measured, kind);
  CAPMEM_LOG_INFO << "sort overhead model: " << sm.overhead().alpha << " + "
                  << sm.overhead().beta << "*threads (r2="
                  << sm.overhead().r2 << ")";
  return sm;
}

std::vector<SortRun> run_sorts(const sim::MachineConfig& cfg,
                               const std::vector<SortCell>& cells,
                               const SortOptions& opts, int jobs) {
  // Start hint: the input size, then the thread count. Every key passes
  // through each merge level, so host time follows the bytes.
  exec::JobCosts cost;
  for (const SortCell& c : cells) {
    cost.push_back(static_cast<double>(c.bytes) * 1024.0 + c.threads);
  }
  return exec::parallel_map<SortRun>(
      static_cast<int>(cells.size()), jobs,
      [&](int i) {
        const SortCell& c = cells[static_cast<std::size_t>(i)];
        CAPMEM_LOG_INFO << "sort: " << c.bytes << " B, " << c.threads
                        << " threads, " << sim::to_string(c.kind);
        SortOptions o = opts;
        o.kind = c.kind;
        return parallel_merge_sort(cfg, c.bytes, c.threads, o);
      },
      cost);
}

SortCurves sort_curves(const model::SortModel& model, std::uint64_t bytes,
                       const std::vector<int>& threads,
                       const std::vector<SortRun>& runs,
                       const SortOptions& opts) {
  CAPMEM_CHECK(runs.size() == threads.size());
  SortCurves out;
  out.bytes = bytes;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const int n = threads[i];
    const SortRun& run = runs[i];
    if (!run.sorted_ok || !run.checksum_ok) out.all_correct = false;
    out.threads.push_back(n);
    out.measured_ns.push_back(run.total_ns);
    out.mem_model_lat_ns.push_back(
        model.predict(bytes, n, opts.kind, /*use_bandwidth=*/false));
    out.mem_model_bw_ns.push_back(
        model.predict(bytes, n, opts.kind, /*use_bandwidth=*/true));
    out.full_model_lat_ns.push_back(
        model.predict_full(bytes, n, opts.kind, false));
    out.full_model_bw_ns.push_back(
        model.predict_full(bytes, n, opts.kind, true));
    if (out.cutoff_threads < 0 &&
        model.overhead_fraction(bytes, n, opts.kind) > 0.10) {
      out.cutoff_threads = n;
    }
  }
  return out;
}

}  // namespace capmem::sort
