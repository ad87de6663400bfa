// Checker: the sim::Observer tying the oracle and the MESIF invariant
// sweeps to one Machine.
//
// Attach by setting MachineConfig::check before constructing the Machine:
//
//   sim::MachineConfig cfg = sim::knl7210(...);
//   check::Checker checker(cfg);
//   cfg.check = &checker;
//   sim::Machine m(cfg);
//   ... run ...
//   checker.final_sweep(m.memsys());
//   if (!checker.ok()) log << checker.report();
//
// The checker is a pure observer (no RNG draws, no simulation state
// mutation), so attaching it never changes virtual-time results; with
// `check` left null the simulator pays a single branch. One Checker serves
// exactly one Machine — under --jobs fan-out each job owns its own pair.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/oracle.hpp"
#include "check/violation.hpp"
#include "sim/config.hpp"
#include "sim/observer.hpp"

namespace capmem::obs {
class TraceSink;
}  // namespace capmem::obs

namespace capmem::check {

class Checker final : public sim::Observer {
 public:
  struct Options {
    /// Full cross-structure sweep every Nth transition (entry-local checks
    /// run on every one). 0 disables periodic sweeps.
    int sweep_period = 128;
    /// Violations stored verbatim; the rest are only counted.
    std::size_t max_stored = 32;
  };

  explicit Checker(const sim::MachineConfig& cfg);
  Checker(const sim::MachineConfig& cfg, Options opt);

  // --- sim::Observer ---
  void on_access(const sim::AccessRecord& rec) override;
  void on_transition(sim::Line line, const sim::LineEntry& entry,
                     const sim::MemSystem& mem) override;
  void on_dir_lookup(int tid, sim::Line line, int home_tile, Nanos t,
                     Nanos start, Nanos service) override;
  void on_flush(sim::Line line) override;
  void on_drop(sim::Line line) override;

  /// Optional sink: every recorded violation additionally emits a
  /// kCheckViolation instant, so divergences land inside Chrome traces
  /// next to the accesses that caused them.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Full invariant sweep over the final machine state; call after run().
  void final_sweep(const sim::MemSystem& mem);

  bool ok() const { return total_ == 0; }
  std::uint64_t violation_count() const { return total_; }
  const std::vector<Violation>& violations() const { return stored_; }
  const Oracle& oracle() const { return oracle_; }
  std::uint64_t transitions() const { return transitions_; }

  /// Multi-line human-readable summary (empty string when ok()).
  std::string report() const;

 private:
  void absorb(std::vector<Violation>&& fresh);

  Options opt_;
  Oracle oracle_;
  InvariantChecker invariants_;
  obs::TraceSink* trace_ = nullptr;
  std::vector<Violation> stored_;
  std::uint64_t total_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace capmem::check
