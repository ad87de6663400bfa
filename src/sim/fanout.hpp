// Fanout: the one place where simulator events become observability and
// validation output.
//
// A Machine builds one Fanout when its MachineConfig names any observer
// (trace, metrics, check, attr) and hands it to the engine, the memory
// system and the channel pools as their Observer. For each event it
//   - builds the obs::TraceEvent for cfg.trace,
//   - charges the per-run attribution Ledger it owns (merged into cfg.attr
//     at the end of the run),
//   - updates the hot-path registry instruments (home-CHA request counts,
//     NoC hops, CHA and channel queue delays; allocation-free, merged into
//     cfg.metrics at the end of the run),
//   - and forwards the event unchanged to cfg.check.
#pragma once

#include <memory>

#include "sim/config.hpp"
#include "sim/observer.hpp"

namespace capmem::sim {

class Engine;

class Fanout : public Observer {
 public:
  /// Null when `cfg` names no observer. `cfg` and `topo` must outlive the
  /// Fanout.
  static std::unique_ptr<Fanout> make(const MachineConfig& cfg,
                                      const Topology& topo);

  /// End-of-run epilogue, called once when the schedule completes:
  /// finalizes the ledger (conservation becomes checkable), rolls its totals
  /// into cfg.metrics, emits the critical path into cfg.trace and merges the
  /// ledger into cfg.attr; then flushes the instruments and the machine's
  /// end-of-run facts into cfg.metrics.
  virtual void finish_run(const Engine& engine, const MemSystem& mem) = 0;
};

}  // namespace capmem::sim
