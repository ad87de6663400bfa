#include "bench/multiline.hpp"

#include "common/check.hpp"
#include "exec/experiment.hpp"
#include "sim/machine.hpp"

namespace capmem::bench {

using sim::Addr;
using sim::BufOpts;
using sim::Ctx;
using sim::Machine;
using sim::Task;

const char* to_string(XferOp op) {
  return op == XferOp::kCopy ? "copy" : "read";
}

Summary multiline_bw(const sim::MachineConfig& cfg, int victim_core,
                     int probe_core, std::uint64_t bytes, XferOp op,
                     PrepState state, const MultilineOptions& opts) {
  CAPMEM_CHECK(state == PrepState::kM || state == PrepState::kE);
  CAPMEM_CHECK(bytes >= kLineBytes);
  Machine m(cfg);
  const int iters = opts.run.iters + opts.warmup;
  const Addr msg = m.alloc("msg", bytes, {}, false);
  const Addr local = m.alloc("local", bytes, {}, false);

  // Single-threaded phases: big chunks are safe and much faster to simulate.
  BufOpts prep_opts;
  prep_opts.chunk_lines = 64;
  BufOpts probe_opts;
  probe_opts.vector = opts.vector;
  probe_opts.chunk_lines = 64;

  SampleVec samples;
  int kept = 0;

  m.add_thread({victim_core, 0}, [&, state](Ctx& ctx) -> Task {
    for (int i = 0; i < iters; ++i) {
      co_await ctx.sync();
      ctx.machine().flush_buffer(msg, bytes);
      if (state == PrepState::kM) {
        co_await ctx.write_buf(msg, bytes, prep_opts);
      } else {
        co_await ctx.read_buf(msg, bytes, prep_opts);
      }
      co_await ctx.sync();
      co_await ctx.sync();
    }
  });
  m.add_thread({probe_core, 0}, [&, op](Ctx& ctx) -> Task {
    for (int i = 0; i < iters; ++i) {
      co_await ctx.sync();
      co_await ctx.sync();
      const Nanos t0 = ctx.now();
      if (op == XferOp::kCopy) {
        co_await ctx.copy(local, msg, bytes, probe_opts);
      } else {
        co_await ctx.read_buf(msg, bytes, probe_opts);
      }
      const Nanos dt = ctx.now() - t0;
      if (i >= opts.warmup) {
        samples.add(bandwidth_gbps(bytes, dt));
        ++kept;
      }
      co_await ctx.sync();
    }
  });
  m.run();
  CAPMEM_CHECK(kept == opts.run.iters);
  return samples.summary();
}

Series multiline_size_sweep(const sim::MachineConfig& cfg, int victim_core,
                            int probe_core,
                            const std::vector<std::uint64_t>& sizes,
                            XferOp op, PrepState state,
                            const MultilineOptions& opts, int jobs) {
  Series s;
  s.name = std::string(to_string(op)) + "-" + to_string(state);
  // Start hint: bytes per transfer (both threads move the whole message).
  const exec::JobCosts cost(sizes.begin(), sizes.end());
  const std::vector<Summary> measured = exec::parallel_map<Summary>(
      static_cast<int>(sizes.size()), jobs,
      [&](int i) {
        return multiline_bw(cfg, victim_core, probe_core,
                            sizes[static_cast<std::size_t>(i)], op, state,
                            opts);
      },
      cost);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    s.add(static_cast<double>(sizes[i]), measured[i]);
  }
  return s;
}

}  // namespace capmem::bench
