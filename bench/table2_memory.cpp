// Reproduces paper Table II: memory benchmark results — latency plus
// copy/read/write/triad bandwidth (randomized-NT medians and STREAM-style
// peaks) for all five cluster modes, in flat and cache memory mode.
//
// Cache mode runs on a memory-scaled machine (MCDRAM cache capacity scaled
// by --cache_scale) so the footprint/capacity ratio of the randomized
// protocol matches a realistically loaded memory-side cache.
#include <iostream>

#include "bench/suite.hpp"
#include "bench_common.hpp"

using namespace capmem;
using namespace capmem::sim;
using namespace capmem::bench;

namespace {

void stream_rows(Table& t, const std::vector<SuiteResults>& results,
                 bool mcdram_rows) {
  const char* opn[4] = {"Copy", "Read", "Write", "Triad"};
  const char* kind = mcdram_rows ? "MCDRAM" : "DRAM";
  for (int oi = 0; oi < 4; ++oi) {
    std::vector<std::string> cells{std::string("BW ") + opn[oi] + " " +
                                   kind + " NT/peak [GB/s]"};
    for (const auto& r : results) {
      const int ki = mcdram_rows ? 1 : 0;
      if (mcdram_rows && !r.has_mcdram_streams) {
        cells.push_back("-");
        continue;
      }
      cells.push_back(fmt_num(r.stream[oi][ki].nt_random.gbps.median, 0) +
                      " / " +
                      fmt_num(r.stream[oi][ki].stream_peak.peak_gbps, 0));
    }
    t.add_row(cells);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  obs::Session obs(cli, argc, argv);
  const int iters = static_cast<int>(
      cli.get_int("iters", 31, "latency iterations (paper: 1000)"));
  const bool fast = cli.get_flag("fast", false, "smaller stream configs");
  const std::uint64_t cache_scale = static_cast<std::uint64_t>(cli.get_int(
      "cache_scale", 64,
      "memory scale divisor for cache-mode runs (footprint realism)"));
  const std::string modes_s = cli.get_string(
      "modes", "all",
      "comma-separated cluster modes to run (reduced golden/test runs)");
  const int jobs = cli.get_jobs();
  cli.finish();
  obs.set_config("knl7210 all-modes/flat+cache");
  obs.set_jobs(jobs);

  std::vector<ClusterMode> modes;
  if (modes_s == "all") {
    modes = all_cluster_modes();
  } else {
    for (std::size_t pos = 0; pos < modes_s.size();) {
      std::size_t comma = modes_s.find(',', pos);
      if (comma == std::string::npos) comma = modes_s.size();
      modes.push_back(
          cluster_mode_from_string(modes_s.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  }

  // Both memory modes' suites, every cluster mode each, run as one batch;
  // the two tables print afterwards.
  obs.phase("suite");
  const MemoryMode mems[2] = {MemoryMode::kFlat, MemoryMode::kCache};
  std::vector<MachineConfig> cfgs;
  for (MemoryMode mem : mems) {
    for (ClusterMode mode : modes) {
      MachineConfig cfg = knl7210(mode, mem);
      if (mem == MemoryMode::kCache) cfg.scale_memory(cache_scale);
      benchbin::observe(obs, cfg);
      cfgs.push_back(cfg);
    }
  }
  SuiteOptions opts;
  opts.run.iters = iters;
  opts.fast = fast;
  opts.jobs = jobs;
  const std::vector<SuiteResults> all = run_suites(cfgs, opts);

  for (std::size_t mi = 0; mi < 2; ++mi) {
    const MemoryMode mem = mems[mi];
    const std::vector<SuiteResults> results(
        all.begin() + static_cast<std::ptrdiff_t>(mi * modes.size()),
        all.begin() + static_cast<std::ptrdiff_t>((mi + 1) * modes.size()));

    Table t(std::string("Table II — memory (") + to_string(mem) + " mode)");
    std::vector<std::string> header{"row"};
    for (ClusterMode mode : modes) header.push_back(to_string(mode));
    t.set_header(header);
    {
      std::vector<std::string> cells{"Latency DRAM [ns]"};
      for (const auto& r : results)
        cells.push_back(fmt_num(r.mem_lat_dram.median, 0));
      t.add_row(cells);
    }
    if (mem == MemoryMode::kFlat) {
      std::vector<std::string> cells{"Latency MCDRAM [ns]"};
      for (const auto& r : results)
        cells.push_back(
            r.mem_lat_mcdram ? fmt_num(r.mem_lat_mcdram->median, 0) : "-");
      t.add_row(cells);
    }
    stream_rows(t, results, /*mcdram_rows=*/false);
    if (mem == MemoryMode::kFlat) stream_rows(t, results, true);
    benchbin::emit(t);
  }
  std::cout
      << "Paper reference (QUAD flat): lat 140/167 | DRAM 70/77/36/74 | "
         "MCDRAM 333/314/171/340; cache mode: lat 166, copy 175, read 124, "
         "write 72, triad 296\n";
  return 0;
}
