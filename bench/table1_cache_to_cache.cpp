// Reproduces paper Table I: cache-to-cache benchmark results across all
// five cluster modes (flat memory) — latencies per state and location,
// single-thread read/copy bandwidths, congestion, and the contention law.
#include <iostream>

#include "bench/suite.hpp"
#include "bench_common.hpp"

using namespace capmem;
using namespace capmem::sim;
using namespace capmem::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  obs::Session obs(cli, argc, argv);
  const int iters = static_cast<int>(cli.get_int(
      "iters", 51, "iterations per experiment (paper: 1000)"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int jobs = cli.get_jobs();
  cli.finish();
  obs.set_config("knl7210 all-modes/flat");
  obs.set_seed(seed);
  obs.set_jobs(jobs);

  Table t("Table I — cache-to-cache (flat memory)");
  t.set_header({"row", "SNC4", "SNC2", "QUAD", "HEM", "A2A"});

  // Every mode's suite cells run as one batch.
  obs.phase("suite");
  SuiteOptions opts;
  opts.run.iters = iters;
  opts.run.seed = seed;
  opts.streams = false;
  opts.jobs = jobs;
  std::vector<MachineConfig> cfgs;
  for (ClusterMode mode : all_cluster_modes()) {
    cfgs.push_back(knl7210(mode, MemoryMode::kFlat));
    benchbin::observe(obs, cfgs.back());
  }
  const std::vector<SuiteResults> results = run_suites(cfgs, opts);

  auto row = [&](const std::string& name, auto getter, int prec = 0) {
    std::vector<std::string> cells{name};
    for (const auto& r : results) cells.push_back(getter(r, prec));
    t.add_row(cells);
  };
  auto med = [](const Summary& s, int prec) { return fmt_num(s.median, prec); };
  auto range = [](const bench::Range& r, int prec) {
    return fmt_num(r.lo, prec) + "-" + fmt_num(r.hi, prec);
  };

  row("Latency Local L1 [ns]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return med(r.lat_l1, 1); });
  row("Latency Tile M [ns]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return med(r.lat_tile_m, p); });
  row("Latency Tile E [ns]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return med(r.lat_tile_e, p); });
  row("Latency Tile S/F [ns]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return med(r.lat_tile_sf, p); });
  row("Latency Remote M [ns]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return range(r.range_remote_m, p); });
  row("Latency Remote E [ns]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return range(r.range_remote_e, p); });
  row("Latency Remote S/F [ns]", [&](const SuiteResults& r, [[maybe_unused]] int p) {
    return range(r.range_remote_sf, p);
  });
  row("BW Read [GB/s]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return med(r.bw_read_remote, 1); });
  row("BW Copy Tile M [GB/s]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return med(r.bw_copy_tile_m, 1); });
  row("BW Copy Tile E [GB/s]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return med(r.bw_copy_tile_e, 1); });
  row("BW Copy Remote [GB/s]",
      [&](const SuiteResults& r, [[maybe_unused]] int p) { return med(r.bw_copy_remote, 1); });
  row("Congestion (P2P pairs)", [&](const SuiteResults& r, [[maybe_unused]] int p) {
    return r.congestion.ratio < 1.15 ? std::string("None")
                                     : fmt_num(r.congestion.ratio, 2) + "x";
  });
  row("Contention alpha [ns]", [&](const SuiteResults& r, [[maybe_unused]] int p) {
    return fmt_num(r.contention.fit.alpha, 0);
  });
  row("Contention beta [ns]", [&](const SuiteResults& r, [[maybe_unused]] int p) {
    return fmt_num(r.contention.fit.beta, 1);
  });
  row("Contention fit r2", [&](const SuiteResults& r, [[maybe_unused]] int p) {
    return fmt_num(r.contention.fit.r2, 3);
  });

  benchbin::emit(t);
  std::cout << "Paper reference (QUAD): L1 3.8 | tile 34/18/14 | remote "
               "119/116/107-117 | read 2.5 | copy 7.5-9.2 | contention "
               "200+34N | congestion none\n";
  return 0;
}
