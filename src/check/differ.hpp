// Differential harness: simulator vs oracle vs inline SC shadow.
//
// One seeded schedule runs attached to a fresh Checker; divergence is any
// of
//   * a Checker violation (oracle version mismatch, MESIF invariant break,
//     residency drift, home-CHA instability),
//   * a CheckError thrown by the simulator's own assertions,
//   * final memory differing from the inline SC shadow (data lines,
//     counter sums, false-sharing slots),
//   * the oracle's last-writer prediction differing from the shadow.
// On divergence, `minimize` shrinks the schedule (prefix bisection, then
// thread halving) and `repro_text` renders a self-contained repro: the
// spec, the violation report, and the minimized per-thread op schedule.
#pragma once

#include <string>

#include "check/workload.hpp"

namespace capmem::check {

struct DiffOutcome {
  WorkloadSpec spec;            ///< exactly what ran (incl. prefix)
  bool ok = true;
  bool aborted = false;         ///< !ok via sim::SimAbort, not divergence
  std::uint64_t violations = 0; ///< checker-recorded violation count
  std::string report;           ///< empty when ok
  double elapsed = 0;
  /// snap::snapshot_id of the mid-run capture when DiffOptions requested
  /// one (empty otherwise). The capture is round-tripped through the byte
  /// format and digest-verified, so a non-empty id certifies the snapshot
  /// path was exercised without changing the run's results.
  std::string snapshot_id;
};

struct DiffOptions {
  /// Pause the schedule at this cumulative engine step, capture the full
  /// machine state, encode -> decode -> digest-verify the snapshot, then
  /// resume. 0 = uninterrupted. Transparency is the contract: the outcome
  /// (violations, report, final memory, elapsed) is byte-identical with
  /// the pause on or off, which the CI tier-1 identity table asserts.
  std::uint64_t snapshot_at_step = 0;
};

/// Runs one schedule with full checking; see file comment for what counts
/// as divergence. Optional `trace` feeds machine events and violation
/// instants into a Chrome trace; optional `attr` collects the machine's
/// virtual-time attribution ledger (conservation-checked at merge).
DiffOutcome run_diff(const WorkloadSpec& spec,
                     obs::TraceSink* trace = nullptr,
                     obs::attr::Sink* attr = nullptr,
                     const DiffOptions& opts = {});

/// Shrinks a diverging spec to a smaller one that still diverges: binary
/// search for the shortest failing per-thread prefix, then halve the
/// thread count while the failure persists. `failing` must diverge.
WorkloadSpec minimize(const WorkloadSpec& failing);

/// Where (in engine steps) a divergence first becomes checker-visible.
struct DivergencePoint {
  /// False when the divergence only shows in final memory (no checker
  /// violation / exception at any intermediate step) — step bisection has
  /// nothing to probe then and only total_steps is meaningful.
  bool found = false;
  std::uint64_t first_bad_step = 0;
  std::uint64_t total_steps = 0;
  /// snap::snapshot_id / digest of the machine state replayed to
  /// first_bad_step - 1: the last-good checkpoint a debugger can restore
  /// (by deterministic replay) to watch the divergence happen.
  std::string last_good_snapshot;
  std::uint64_t last_good_digest = 0;
};

/// Bisection over the engine step count: checker violations and simulator
/// exceptions are monotone nondecreasing in executed steps (violations are
/// never retracted), so "bad by step k" is a monotone predicate and binary
/// search finds the first bad step in O(log steps) replays. `failing`
/// should diverge (else found == false).
DivergencePoint locate_divergence(const WorkloadSpec& failing);

/// Self-contained repro text for a diverging outcome. `where` (nullable)
/// appends the divergence location and its last-good snapshot id.
std::string repro_text(const DiffOutcome& outcome,
                       const DivergencePoint* where = nullptr);

}  // namespace capmem::check
