#include "coll/harness.hpp"

#include <algorithm>

#include "coll/baseline_mpi.hpp"
#include "coll/baseline_omp.hpp"
#include "coll/tuned.hpp"
#include "common/check.hpp"
#include "exec/experiment.hpp"
#include "sim/machine.hpp"
#include "snap/snapshot.hpp"

namespace capmem::coll {

using sim::Machine;

namespace {

/// machine.run(), optionally split by a mid-collective snapshot
/// round-trip at opts.snapshot_at_step (transparent: the resumed run
/// continues the exact event queue the pause interrupted).
void run_machine(Machine& machine, const HarnessOptions& opts) {
  if (opts.snapshot_at_step != 0 &&
      !machine.run_until(opts.snapshot_at_step)) {
    // Against the live machine's digest, so a capture that dropped or
    // misread a field trips it as well as a lossy encode/decode.
    const std::vector<std::uint8_t> bytes =
        snap::encode(snap::capture(machine), machine.config());
    CAPMEM_CHECK_MSG(
        snap::digest(snap::decode(bytes, machine.config())) ==
            snap::digest(machine),
        "mid-collective snapshot round-trip changed the state digest");
  }
  machine.run_until(0);
}

}  // namespace

const char* to_string(Algo a) {
  switch (a) {
    case Algo::kTunedBarrier: return "tuned-barrier";
    case Algo::kTunedBroadcast: return "tuned-broadcast";
    case Algo::kTunedReduce: return "tuned-reduce";
    case Algo::kOmpBarrier: return "omp-barrier";
    case Algo::kOmpBroadcast: return "omp-broadcast";
    case Algo::kOmpReduce: return "omp-reduce";
    case Algo::kMpiBarrier: return "mpi-barrier";
    case Algo::kMpiBroadcast: return "mpi-broadcast";
    case Algo::kMpiReduce: return "mpi-reduce";
    case Algo::kTunedAllreduce: return "tuned-allreduce";
    case Algo::kOmpAllreduce: return "omp-allreduce";
    case Algo::kMpiAllreduce: return "mpi-allreduce";
  }
  return "?";
}

bool is_tuned(Algo a) {
  return a == Algo::kTunedBarrier || a == Algo::kTunedBroadcast ||
         a == Algo::kTunedReduce || a == Algo::kTunedAllreduce;
}

Recorder::Recorder(int nranks, int iters)
    : nranks_(nranks),
      iters_(iters),
      cells_(static_cast<std::size_t>(nranks) *
                 static_cast<std::size_t>(iters),
             0.0) {}

void Recorder::record(int rank, int iter, double ns) {
  CAPMEM_CHECK(rank >= 0 && rank < nranks_ && iter >= 0 && iter < iters_);
  cells_[static_cast<std::size_t>(rank) * static_cast<std::size_t>(iters_) +
         static_cast<std::size_t>(iter)] = ns;
}

std::vector<double> Recorder::iter_max_series() const {
  std::vector<double> out(static_cast<std::size_t>(iters_), 0.0);
  for (int it = 0; it < iters_; ++it) {
    double mx = 0;
    for (int r = 0; r < nranks_; ++r) {
      mx = std::max(mx,
                    cells_[static_cast<std::size_t>(r) *
                               static_cast<std::size_t>(iters_) +
                           static_cast<std::size_t>(it)]);
    }
    out[static_cast<std::size_t>(it)] = mx;
  }
  return out;
}

Summary Recorder::per_iter_max() const {
  return summarize(iter_max_series());
}

CollResult run_collective(const sim::MachineConfig& cfg, Algo algo,
                          int nthreads, const model::CapabilityModel* model,
                          const HarnessOptions& opts) {
  CAPMEM_CHECK(nthreads >= 2);
  CAPMEM_CHECK_MSG(!is_tuned(algo) || model != nullptr,
                   "tuned collectives need a fitted capability model");
  Machine machine(cfg);
  World w;
  w.machine = &machine;
  w.slots = sim::make_schedule(cfg, opts.sched, nthreads);
  const bool cache_mode = cfg.memory == sim::MemoryMode::kCache;
  w.place = sim::Placement{
      cache_mode ? sim::MemKind::kDDR : opts.cell_kind, std::nullopt};

  Recorder rec(nthreads, opts.iters);
  CollResult out;

  // Thread layout for the model band (tiles actually touched).
  TileGroups groups;
  {
    World probe = w;
    groups = group_by_tile(probe);
  }
  model::ThreadLayout lay;
  lay.nthreads = nthreads;
  lay.tiles = static_cast<int>(groups.leaders.size());
  lay.threads_per_tile =
      (nthreads + lay.tiles - 1) / std::max(1, lay.tiles);

  auto spawn_all = [&](auto& impl) {
    for (int r = 0; r < nthreads; ++r) {
      machine.add_thread(w.slots[static_cast<std::size_t>(r)],
                         impl.program(r, opts.iters, &rec));
    }
  };

  switch (algo) {
    case Algo::kTunedBarrier: {
      const auto d =
          model::optimize_dissemination(*model, nthreads, opts.cell_kind);
      TunedBarrier impl(w, d);
      spawn_all(impl);
      run_machine(machine, opts);
      out.band = model::barrier_band(*model, lay, opts.cell_kind);
      out.has_band = true;
      break;
    }
    case Algo::kTunedBroadcast: {
      const auto tree = model::optimize_tree(
          *model, lay.tiles, model::TreeKind::kBroadcast, opts.cell_kind);
      TunedBroadcast impl(w, tree);
      spawn_all(impl);
      run_machine(machine, opts);
      out.band = model::broadcast_band(*model, lay, opts.cell_kind);
      out.has_band = true;
      break;
    }
    case Algo::kTunedReduce: {
      const auto tree = model::optimize_tree(
          *model, lay.tiles, model::TreeKind::kReduce, opts.cell_kind);
      TunedReduce impl(w, tree);
      spawn_all(impl);
      run_machine(machine, opts);
      out.band = model::reduce_band(*model, lay, opts.cell_kind);
      out.has_band = true;
      break;
    }
    case Algo::kOmpBarrier: {
      OmpBarrier impl(w);
      spawn_all(impl);
      run_machine(machine, opts);
      break;
    }
    case Algo::kOmpBroadcast: {
      OmpBroadcast impl(w);
      spawn_all(impl);
      run_machine(machine, opts);
      break;
    }
    case Algo::kOmpReduce: {
      OmpReduce impl(w);
      spawn_all(impl);
      run_machine(machine, opts);
      break;
    }
    case Algo::kMpiBarrier: {
      MpiBarrier impl(w);
      spawn_all(impl);
      run_machine(machine, opts);
      break;
    }
    case Algo::kMpiBroadcast: {
      MpiBroadcast impl(w);
      spawn_all(impl);
      run_machine(machine, opts);
      break;
    }
    case Algo::kMpiReduce: {
      MpiReduce impl(w);
      spawn_all(impl);
      run_machine(machine, opts);
      break;
    }
    case Algo::kTunedAllreduce: {
      const auto rtree = model::optimize_tree(
          *model, lay.tiles, model::TreeKind::kReduce, opts.cell_kind);
      const auto btree = model::optimize_tree(
          *model, lay.tiles, model::TreeKind::kBroadcast, opts.cell_kind);
      TunedAllreduce impl(w, rtree, btree);
      spawn_all(impl);
      run_machine(machine, opts);
      out.band = model::allreduce_band(*model, lay, opts.cell_kind);
      out.has_band = true;
      break;
    }
    case Algo::kOmpAllreduce: {
      OmpAllreduce impl(w);
      spawn_all(impl);
      run_machine(machine, opts);
      break;
    }
    case Algo::kMpiAllreduce: {
      MpiAllreduce impl(w);
      spawn_all(impl);
      run_machine(machine, opts);
      break;
    }
  }

  out.per_iter_max = rec.per_iter_max();
  out.errors = rec.errors();
  return out;
}

std::vector<CollResult> run_collective_sweep(
    const sim::MachineConfig& cfg, const std::vector<SweepPoint>& points,
    const model::CapabilityModel* model, const HarnessOptions& opts,
    int jobs) {
  // Host time grows with the thread count, so the widest cells start first
  // instead of last.
  exec::JobCosts cost;
  for (const SweepPoint& p : points) cost.push_back(p.nthreads);
  return exec::parallel_map<CollResult>(
      static_cast<int>(points.size()), jobs,
      [&](int i) {
        HarnessOptions ho = opts;
        // Per-point seed, stable across jobs values.
        ho.seed = exec::derive_seed(opts.seed, static_cast<std::uint64_t>(i),
                                    0);
        const SweepPoint& p = points[static_cast<std::size_t>(i)];
        return run_collective(cfg, p.algo, p.nthreads, model, ho);
      },
      cost);
}

}  // namespace capmem::coll
