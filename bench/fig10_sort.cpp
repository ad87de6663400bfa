// Reproduces paper Figure 10: parallel merge sort vs thread count for
// small / intermediate / large inputs in SNC4-flat MCDRAM, next to the
// memory models (latency and inverse-bandwidth cost) and the full models
// (memory + fitted overhead), with the >10%-overhead cutoff. Also prints
// the MCDRAM-vs-DRAM comparison the model predicts to be negligible.
//
// The paper's large point is 1 GB; the discrete-event budget caps the
// default at 64 MB (same regime: far larger than the 33 MB of aggregate
// L2, deep cross-thread merge tree). Use --large_mb to raise it.
#include <iostream>

#include "bench_common.hpp"
#include "common/ascii_plot.hpp"
#include "exec/experiment.hpp"
#include "model/fit.hpp"
#include "sort/harness.hpp"

using namespace capmem;
using namespace capmem::sim;
using namespace capmem::sort;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  obs::Session obs(cli, argc, argv);
  const int fit_iters = static_cast<int>(cli.get_int("fit_iters", 31));
  const std::uint64_t large_mb = static_cast<std::uint64_t>(
      cli.get_int("large_mb", 64, "large input size (paper: 1024)"));
  const bool full_sweep =
      cli.get_flag("full_sweep", false, "all thread counts at every size");
  const int jobs = cli.get_jobs();
  cli.finish();

  MachineConfig cfg = knl7210(ClusterMode::kSNC4, MemoryMode::kFlat);
  benchbin::observe(obs, cfg);
  obs.set_config("knl7210 SNC4/flat");
  obs.set_seed(cfg.seed);
  obs.set_jobs(jobs);
  obs.phase("fit");

  // Capability model: cache half + a focused bandwidth fit (copy at 1 and
  // at full-chip threads) instead of the whole stream suite.
  bench::SuiteOptions sopts;
  sopts.run.iters = fit_iters;
  sopts.jobs = jobs;
  model::CapabilityModel caps = model::fit_cache_model(cfg, sopts);
  // Four independent anchor measurements (1-thread and aggregate copy per
  // memory kind) fan out through the exec layer.
  const std::vector<double> anchors = exec::parallel_map<double>(
      4, jobs, [&](int i) {
        const MemKind kind = i / 2 == 0 ? MemKind::kDDR : MemKind::kMCDRAM;
        bench::StreamConfig sc;
        sc.kind = kind;
        sc.run.iters = 5;
        sc.buffer_bytes = KiB(256);
        sc.nthreads = i % 2 == 0
                          ? 1
                          : (kind == MemKind::kDDR ? 16 : cfg.cores());
        return bench::stream_bench(cfg, bench::StreamOp::kCopy, sc)
            .gbps.median;
      });
  for (int ki = 0; ki < 2; ++ki) {
    auto& law = ki == 0 ? caps.bw_dram : caps.bw_mcdram;
    law.per_thread_gbps =
        anchors[static_cast<std::size_t>(ki * 2)] / 2.0;  // copy: R+W bytes
    law.aggregate_gbps = anchors[static_cast<std::size_t>(ki * 2 + 1)] / 2.0;
  }

  SortOptions so;
  so.kind = MemKind::kMCDRAM;
  const std::vector<int> fit_threads{1, 2, 4, 8, 16, 32, 64, 128, 256};
  const model::SortModel sm =
      make_sort_model(cfg, caps, so.kind, fit_threads, so, jobs);
  std::cout << "overhead model: " << fmt_num(sm.overhead().alpha, 0) << " + "
            << fmt_num(sm.overhead().beta, 1) << "*threads\n\n";

  struct Size {
    const char* label;
    std::uint64_t bytes;
    std::vector<int> threads;
  };
  std::vector<Size> sizes{
      {"1 KB", KiB(1), {1, 2, 4, 8, 16, 32, 64, 128, 256}},
      {"4 MB", MiB(4), {1, 2, 4, 8, 16, 32, 64, 128, 256}},
      {"large", MiB(large_mb), {1, 4, 16, 64, 256}},
  };
  if (full_sweep) {
    sizes[2].threads = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  }

  // Every sort of the figure — each size's sweep and both kinds of the
  // MCDRAM-vs-DRAM comparison — runs as one batch, biggest inputs first;
  // the tables print afterwards. A sort is a pure function of its cell, so
  // a cell that appears twice (the comparison's MCDRAM runs are also sweep
  // points) is run once.
  std::vector<SortCell> cells;
  auto cell = [&cells](std::uint64_t bytes, int n, MemKind kind) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const SortCell& c = cells[i];
      if (c.bytes == bytes && c.threads == n && c.kind == kind) return i;
    }
    cells.push_back({bytes, n, kind});
    return cells.size() - 1;
  };
  std::vector<std::vector<std::size_t>> size_cells;
  for (const Size& sz : sizes) {
    size_cells.emplace_back();
    for (int n : sz.threads) {
      size_cells.back().push_back(cell(sz.bytes, n, so.kind));
    }
  }
  struct ComparePoint {
    std::uint64_t bytes;
    int n;
    std::size_t dram, mcdram;  // cell indices
  };
  std::vector<ComparePoint> cpoints;
  for (std::uint64_t bytes : {MiB(4), MiB(large_mb)}) {
    for (int n : {64, 256}) {
      cpoints.push_back({bytes, n, cell(bytes, n, MemKind::kDDR),
                         cell(bytes, n, MemKind::kMCDRAM)});
    }
  }
  obs.phase("sort");
  const std::vector<SortRun> runs = run_sorts(cfg, cells, so, jobs);

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const Size& sz = sizes[si];
    std::vector<SortRun> sz_runs;
    for (std::size_t i : size_cells[si]) sz_runs.push_back(runs[i]);
    const SortCurves c = sort_curves(sm, sz.bytes, sz.threads, sz_runs, so);
    Table t(std::string("Figure 10 — sorting ") + sz.label +
            " (SNC4-flat, MCDRAM) [ns]");
    t.set_header({"threads", "measured", "mem model (lat)",
                  "mem model (BW)", "full model (lat)", "full model (BW)"});
    for (std::size_t i = 0; i < c.threads.size(); ++i) {
      t.add_row({fmt_num(c.threads[i], 0), fmt_num(c.measured_ns[i], 0),
                 fmt_num(c.mem_model_lat_ns[i], 0),
                 fmt_num(c.mem_model_bw_ns[i], 0),
                 fmt_num(c.full_model_lat_ns[i], 0),
                 fmt_num(c.full_model_bw_ns[i], 0)});
    }
    benchbin::emit(t);
    {
      auto mk = [&](const char* name, const std::vector<double>& ys) {
        PlotSeries ps{name, {}, ys};
        for (int n : c.threads) ps.xs.push_back(n);
        return ps;
      };
      PlotOptions po;
      po.log_x = true;
      po.log_y = true;
      po.title = std::string("Figure 10 — ") + sz.label;
      po.x_label = "threads";
      po.y_label = "ns (log)";
      ascii_plot(std::cout,
                 {mk("measured", c.measured_ns),
                  mk("mem model (lat)", c.mem_model_lat_ns),
                  mk("mem model (BW)", c.mem_model_bw_ns),
                  mk("full model (BW)", c.full_model_bw_ns)},
                 po);
    }
    std::cout << "correct: " << (c.all_correct ? "yes" : "NO")
              << "; >10% overhead from "
              << (c.cutoff_threads > 0 ? fmt_num(c.cutoff_threads, 0)
                                       : std::string("never"))
              << " threads\n\n";
  }

  // The paper's headline: MCDRAM does not improve this sort over DRAM.
  std::cout << "== MCDRAM vs DRAM (4 MB and " << large_mb << " MB) ==\n";
  for (const ComparePoint& p : cpoints) {
    std::cout << p.bytes / MiB(1) << " MB, " << p.n
              << " threads: DRAM/MCDRAM = "
              << fmt_num(runs[p.dram].total_ns / runs[p.mcdram].total_ns, 3)
              << " (paper: ~1, MCDRAM does not help)\n";
  }
  return 0;
}
