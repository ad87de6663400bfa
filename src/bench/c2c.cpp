#include "bench/c2c.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/experiment.hpp"
#include "sim/machine.hpp"

namespace capmem::bench {

using sim::AccessOpts;
using sim::AccessType;
using sim::Addr;
using sim::Ctx;
using sim::Machine;
using sim::Task;

const char* to_string(PrepState s) {
  switch (s) {
    case PrepState::kM: return "M";
    case PrepState::kE: return "E";
    case PrepState::kS: return "S";
    case PrepState::kF: return "F";
    case PrepState::kI: return "I";
  }
  return "?";
}

namespace {

int pick_helper_core(const sim::MachineConfig& cfg, int victim, int probe,
                     int requested) {
  if (requested >= 0) return requested;
  const int cpt = cfg.cores_per_tile;
  for (int c = 0; c < cfg.cores(); ++c) {
    if (c / cpt != victim / cpt && c / cpt != probe / cpt) return c;
  }
  CAPMEM_CHECK_MSG(false, "machine too small for a helper tile");
}

}  // namespace

Summary c2c_read_latency(const sim::MachineConfig& cfg, int victim_core,
                         int probe_core, PrepState state,
                         const C2COptions& opts) {
  CAPMEM_CHECK(victim_core >= 0 && victim_core < cfg.cores());
  CAPMEM_CHECK(probe_core >= 0 && probe_core < cfg.cores());
  Machine m(cfg);
  const int iters = opts.run.iters;
  const Addr pool = m.alloc(
      "c2c_pool",
      static_cast<std::uint64_t>(opts.pool_lines) * kLineBytes, {}, false);

  // Pre-draw the randomized line sequence (same for all threads).
  Rng rng(opts.run.seed);
  std::vector<Addr> line_addr;
  line_addr.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    line_addr.push_back(
        pool + rng.next_below(static_cast<std::uint64_t>(opts.pool_lines)) *
                   kLineBytes);
  }

  SampleVec samples;
  const bool helper_needed =
      state == PrepState::kS || state == PrepState::kF;
  const int helper_core =
      helper_needed
          ? pick_helper_core(cfg, victim_core, probe_core, opts.helper_core)
          : -1;

  // Iteration protocol (all threads execute the same barrier sequence):
  //   sync -> victim flushes the line (untimed reset)
  //   sync -> prep 1: victim M-write / E,S-read; helper F-read
  //   sync -> prep 2: victim F-read; helper S-read
  //   sync -> probe performs the timed read
  m.add_thread({victim_core, 0}, [&, state](Ctx& ctx) -> Task {
    for (int i = 0; i < iters; ++i) {
      co_await ctx.sync();
      ctx.machine().flush_buffer(line_addr[static_cast<std::size_t>(i)],
                                 kLineBytes);
      co_await ctx.sync();
      const Addr a = line_addr[static_cast<std::size_t>(i)];
      if (state == PrepState::kM) {
        co_await ctx.touch(a, AccessType::kWrite);
      } else if (state == PrepState::kE || state == PrepState::kS) {
        co_await ctx.touch(a, AccessType::kRead);
      }
      co_await ctx.sync();
      if (state == PrepState::kF) {
        co_await ctx.touch(a, AccessType::kRead);
      }
      co_await ctx.sync();
    }
  });
  if (helper_needed) {
    m.add_thread({helper_core, 0}, [&, state](Ctx& ctx) -> Task {
      for (int i = 0; i < iters; ++i) {
        co_await ctx.sync();
        co_await ctx.sync();
        const Addr a = line_addr[static_cast<std::size_t>(i)];
        if (state == PrepState::kF) {
          co_await ctx.touch(a, AccessType::kRead);
        }
        co_await ctx.sync();
        if (state == PrepState::kS) {
          co_await ctx.touch(a, AccessType::kRead);
        }
        co_await ctx.sync();
      }
    });
  }
  m.add_thread({probe_core, 0}, [&](Ctx& ctx) -> Task {
    for (int i = 0; i < iters; ++i) {
      co_await ctx.sync();
      co_await ctx.sync();
      co_await ctx.sync();
      co_await ctx.sync();
      const Nanos t0 = ctx.now();
      co_await ctx.touch(line_addr[static_cast<std::size_t>(i)],
                         AccessType::kRead);
      samples.add(ctx.now() - t0);
    }
  });
  m.run();
  return samples.summary();
}

std::vector<Series> c2c_latency_per_core(const sim::MachineConfig& cfg,
                                         int origin,
                                         std::vector<PrepState> states,
                                         const C2COptions& opts, int jobs) {
  // Enumerate the (state, victim core) grid up front so the cells can fan
  // out as independent jobs; the series are then assembled in grid order.
  struct Cell {
    PrepState state;
    int core;
  };
  std::vector<Cell> cells;
  for (PrepState st : states) {
    for (int core = 0; core < cfg.cores(); ++core) {
      if (core == origin) continue;
      cells.push_back({st, core});
    }
  }
  // Start hint: the threads a cell runs (S and F states add a helper).
  exec::JobCosts cost;
  for (const Cell& c : cells) {
    const bool helper = c.state == PrepState::kS || c.state == PrepState::kF;
    cost.push_back(helper ? 3 : 2);
  }
  const std::vector<Summary> measured = exec::parallel_map<Summary>(
      static_cast<int>(cells.size()), jobs,
      [&](int i) {
        const Cell& c = cells[static_cast<std::size_t>(i)];
        return c2c_read_latency(cfg, /*victim=*/c.core, /*probe=*/origin,
                                c.state, opts);
      },
      cost);

  std::vector<Series> out;
  std::size_t idx = 0;
  for (PrepState st : states) {
    Series s;
    s.name = to_string(st);
    for (int core = 0; core < cfg.cores(); ++core) {
      if (core == origin) continue;
      s.add(core, measured[idx++]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace capmem::bench
