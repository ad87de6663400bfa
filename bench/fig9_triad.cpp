// Reproduces paper Figure 9: memory bandwidth of the triad benchmark in
// SNC4-flat mode vs thread count, MCDRAM vs DRAM, for the "filling cores"
// (compact, 4 SMT threads per core) and "filling tiles" (one thread per
// core) schedules.
#include <iostream>

#include "bench/stream.hpp"
#include "bench_common.hpp"
#include "common/ascii_plot.hpp"

using namespace capmem;
using namespace capmem::sim;
using namespace capmem::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  obs::Session obs(cli, argc, argv);
  const int iters = static_cast<int>(cli.get_int("iters", 5));
  const std::string mode_s = cli.get_string("mode", "SNC4");
  const int max_threads = static_cast<int>(cli.get_int(
      "max-threads", 256, "cap the thread sweep (reduced golden/test runs)"));
  const int jobs = cli.get_jobs();
  cli.finish();

  MachineConfig cfg =
      knl7210(cluster_mode_from_string(mode_s), MemoryMode::kFlat);
  benchbin::observe(obs, cfg);
  obs.set_config("knl7210 " + mode_s + "/flat");
  obs.set_seed(cfg.seed);
  obs.set_jobs(jobs);
  std::vector<int> threads;
  for (int n : {1, 4, 8, 16, 32, 64, 128, 256})
    if (n <= max_threads) threads.push_back(n);

  Table t("Figure 9 — triad bandwidth vs threads (" + mode_s +
          "-flat) [GB/s]");
  t.set_header({"series", "threads", "median", "q1", "q3", "min", "max"});
  // All four curves' cells run as one batch; the rows print afterwards.
  obs.phase("sweep");
  std::vector<StreamConfig> curves;
  for (Schedule sched : {Schedule::kFillCores, Schedule::kFillTiles}) {
    for (MemKind kind : {MemKind::kMCDRAM, MemKind::kDDR}) {
      StreamConfig sc;
      sc.kind = kind;
      sc.sched = sched;
      sc.nt = true;
      sc.run.iters = iters;
      sc.buffer_bytes = KiB(256);
      curves.push_back(sc);
    }
  }
  const std::vector<Series> sweeps =
      stream_thread_sweep(cfg, StreamOp::kTriad, curves, threads, jobs);
  std::vector<PlotSeries> plots;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const Series& s = sweeps[c];
    const std::string label = std::string(to_string(curves[c].kind)) + "/" +
                              to_string(curves[c].sched);
    benchbin::series_rows(t, s, label, 0);
    PlotSeries ps{label, s.xs, {}};
    for (const auto& y : s.ys) ps.ys.push_back(y.median);
    plots.push_back(std::move(ps));
  }
  benchbin::emit(t);
  PlotOptions po;
  po.log_x = true;
  po.title = "Figure 9 — triad GB/s vs threads";
  po.x_label = "threads";
  po.y_label = "GB/s";
  ascii_plot(std::cout, plots, po);
  std::cout
      << "Paper reference: MCDRAM needs ~256 threads (filling cores) or "
         "all 64 cores (filling tiles) to peak at 300-400 GB/s; DRAM "
         "saturates at ~70-80 GB/s with 16 cores\n";
  return 0;
}
