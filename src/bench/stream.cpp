#include "bench/stream.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/experiment.hpp"
#include "sim/machine.hpp"

namespace capmem::bench {

using sim::Addr;
using sim::BufOpts;
using sim::CpuSlot;
using sim::Ctx;
using sim::Machine;
using sim::MemKind;
using sim::MemoryMode;
using sim::Task;

const char* to_string(StreamOp op) {
  switch (op) {
    case StreamOp::kCopy: return "copy";
    case StreamOp::kRead: return "read";
    case StreamOp::kWrite: return "write";
    case StreamOp::kTriad: return "triad";
  }
  return "?";
}

double stream_bytes_factor(StreamOp op) {
  switch (op) {
    case StreamOp::kCopy: return 2.0;
    case StreamOp::kTriad: return 3.0;
    case StreamOp::kRead:
    case StreamOp::kWrite: return 1.0;
  }
  return 1.0;
}

double stream_cost(StreamOp op, const StreamConfig& sc) {
  return stream_bytes_factor(op) * static_cast<double>(sc.buffer_bytes) *
         sc.nthreads * sc.run.iters;
}

namespace {
// Stream arrays needed by a kernel (dst plus 0-2 sources).
int arrays_for(StreamOp op) {
  switch (op) {
    case StreamOp::kTriad: return 3;
    case StreamOp::kCopy: return 2;
    default: return 1;
  }
}
}  // namespace

StreamResult stream_bench(const sim::MachineConfig& cfg, StreamOp op,
                          const StreamConfig& sc) {
  CAPMEM_CHECK(sc.nthreads >= 1 && sc.buffer_bytes >= kLineBytes);
  Machine m(cfg);
  const bool cache_mode = cfg.memory == MemoryMode::kCache;
  const sim::Placement place{cache_mode ? MemKind::kDDR : sc.kind,
                             std::nullopt};
  const int narr = arrays_for(op);
  const int pool = sc.randomize ? sc.pool_buffers : 1;

  // Per thread: `pool` slots x `narr` arrays.
  std::vector<std::vector<Addr>> arrays(
      static_cast<std::size_t>(sc.nthreads));
  for (int t = 0; t < sc.nthreads; ++t) {
    for (int s = 0; s < pool * narr; ++s) {
      arrays[static_cast<std::size_t>(t)].push_back(
          m.alloc("s" + std::to_string(t) + "_" + std::to_string(s),
                  sc.buffer_bytes, place, false));
    }
  }

  // Pre-drawn random slot choice per (iteration, thread).
  Rng rng(sc.run.seed);
  const int iters = sc.run.iters;
  std::vector<int> choice(static_cast<std::size_t>(iters * sc.nthreads), 0);
  for (auto& c : choice)
    c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(pool)));

  const auto slots = sim::make_schedule(cfg, sc.sched, sc.nthreads);
  std::vector<double> dur(static_cast<std::size_t>(sc.nthreads), 0.0);
  SampleVec per_iter_gbps;
  const double conv =
      stream_bytes_factor(op) * static_cast<double>(sc.buffer_bytes) *
      sc.nthreads;

  for (int t = 0; t < sc.nthreads; ++t) {
    m.add_thread(slots[static_cast<std::size_t>(t)],
                 [&, t, op](Ctx& ctx) -> Task {
                   BufOpts o;
                   o.nt = sc.nt;
                   o.vector = sc.vector;
                   for (int i = 0; i < iters; ++i) {
                     co_await ctx.sync();
                     const int slot =
                         choice[static_cast<std::size_t>(i * sc.nthreads +
                                                         t)];
                     const auto& arr = arrays[static_cast<std::size_t>(t)];
                     // Reset the coherent caches for this iteration's
                     // arrays (the memory-side MCDRAM cache stays warm):
                     // stands in for STREAM's arrays being far larger than
                     // the caches, which the scaled simulation footprint
                     // is not.
                     for (int k = 0; k < narr; ++k) {
                       ctx.machine().flush_buffer(
                           arr[static_cast<std::size_t>(slot * narr + k)],
                           sc.buffer_bytes, /*drop_mcdram_cache=*/false);
                     }
                     const Addr a =
                         arr[static_cast<std::size_t>(slot * narr)];
                     const Nanos t0 = ctx.now();
                     switch (op) {
                       case StreamOp::kRead:
                         co_await ctx.read_buf(a, sc.buffer_bytes, o);
                         break;
                       case StreamOp::kWrite:
                         co_await ctx.write_buf(a, sc.buffer_bytes, o);
                         break;
                       case StreamOp::kCopy:
                         co_await ctx.copy(
                             a,
                             arr[static_cast<std::size_t>(slot * narr + 1)],
                             sc.buffer_bytes, o);
                         break;
                       case StreamOp::kTriad:
                         co_await ctx.triad(
                             a,
                             arr[static_cast<std::size_t>(slot * narr + 1)],
                             arr[static_cast<std::size_t>(slot * narr + 2)],
                             sc.buffer_bytes, o);
                         break;
                     }
                     dur[static_cast<std::size_t>(t)] = ctx.now() - t0;
                     co_await ctx.sync();
                     if (t == 0) {
                       double mx = 0;
                       for (double d : dur) mx = std::max(mx, d);
                       per_iter_gbps.add(conv / mx);
                     }
                   }
                 });
  }
  m.run();
  StreamResult out;
  out.gbps = per_iter_gbps.summary();
  out.peak_gbps = per_iter_gbps.max();
  return out;
}

std::vector<Series> stream_thread_sweep(
    const sim::MachineConfig& cfg, StreamOp op,
    const std::vector<StreamConfig>& curves,
    const std::vector<int>& thread_counts, int jobs) {
  const std::size_t npts = thread_counts.size();
  std::vector<StreamConfig> points;
  exec::JobCosts cost;
  for (const StreamConfig& sc : curves) {
    for (int n : thread_counts) {
      StreamConfig point = sc;
      point.nthreads = n;
      points.push_back(point);
      cost.push_back(stream_cost(op, point));
    }
  }
  const std::vector<StreamResult> results =
      exec::parallel_map<StreamResult>(
          static_cast<int>(points.size()), jobs,
          [&](int i) {
            return stream_bench(cfg, op,
                                points[static_cast<std::size_t>(i)]);
          },
          cost);
  std::vector<Series> out;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const StreamConfig& sc = curves[c];
    Series s;
    s.name = std::string(to_string(op)) + "-" +
             std::string(sim::to_string(sc.kind)) + "-" +
             sim::to_string(sc.sched);
    for (std::size_t i = 0; i < npts; ++i) {
      s.add(thread_counts[i], results[c * npts + i].gbps);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace capmem::bench
