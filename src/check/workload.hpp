// Randomized workload generation for differential testing.
//
// A WorkloadSpec deterministically expands (seed -> per-thread op lists)
// into a mixed coherence workload: shared-line reads and writes,
// non-temporal stores, atomic fetch-adds on contended counters,
// false-sharing stores (threads hammering distinct words of shared lines),
// private streaming traffic for cache churn, and mid-run line flushes.
// While running, the harness maintains an inline sequentially-consistent
// shadow of what memory must contain at the end — coroutine bodies execute
// in arrival order, the same order the simulator commits stores, so
// updating the shadow right before each issued store replays commit order
// exactly. run_workload returns both the shadow and the simulator's final
// memory so a differ can compare them, with a Checker hooked into every
// access and MESIF transition along the way.
//
// Schedules are replayable by (seed, threads, ops) alone, and `prefix`
// truncates every thread's list for divergence minimization.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "fault/plan.hpp"
#include "sim/config.hpp"
#include "sim/thread.hpp"

namespace capmem::sim {
class Machine;
}  // namespace capmem::sim

namespace capmem::obs {
class TraceSink;
class Registry;
}  // namespace capmem::obs

namespace capmem::obs::attr {
class Sink;
}  // namespace capmem::obs::attr

namespace capmem::check {

struct WorkloadSpec {
  int threads = 10;
  int data_lines = 12;     ///< shared multi-writer lines (encode values)
  int counter_lines = 2;   ///< fetch-add counters (order-free sums)
  int ops_per_thread = 160;
  int prefix = -1;         ///< execute only the first N ops/thread (-1: all)
  std::uint64_t seed = 1;
  sim::ClusterMode cluster = sim::ClusterMode::kQuadrant;
  sim::MemoryMode memory = sim::MemoryMode::kFlat;
  sim::Schedule sched = sim::Schedule::kScatter;
  /// Coherence protocol and machine preset the workload runs on. The
  /// defaults reproduce the historical fuzz transcripts byte-for-byte;
  /// label() mentions either only when it differs from the default.
  sim::Protocol protocol = sim::Protocol::kMesif;
  std::string machine = "knl_38t";
  /// Engine step budget (0 = unlimited): trips the watchdog with a
  /// sim::SimAbort instead of letting a pathological schedule run away.
  std::uint64_t max_steps = 0;
  /// Degraded-silicon severity 0-3 (fault::from_seed(seed, severity));
  /// 0 = healthy, byte-identical to the pre-fault simulator.
  int fault_severity = 0;

  /// "quad/flat t10 ops160 seed42", with "[:N]" appended under a prefix
  /// and " steps<=N" / " faultN" / " <machine>/<protocol>" when those
  /// knobs are set to non-default values.
  std::string label() const;
};

enum class OpKind : std::uint8_t {
  kRead,        ///< timed 64-bit load of a shared data line
  kWrite,       ///< store encode(tid, count) to a shared data line
  kNtWrite,     ///< the same through the non-temporal path
  kFetchAdd,    ///< atomic add on a shared counter line
  kFalseShare,  ///< store to this thread's word of a shared slot line
  kStream,      ///< streaming read over a private buffer (cache churn)
  kFlush,       ///< untimed flush of a shared data line
  kCompute,     ///< virtual-time gap (decorrelates thread clocks)
};
const char* to_string(OpKind k);

struct Op {
  OpKind kind = OpKind::kRead;
  int arg = 0;             ///< data/counter line index, when line-directed
  std::uint64_t val = 0;   ///< fetch-add delta
  double ns = 0;           ///< compute-gap length
};

/// The value thread `tid` stores on its `count`th write to a data line.
/// Distinct across (tid, count), so final memory identifies its writer.
constexpr std::uint64_t encode_value(int tid, std::uint64_t count) {
  return (static_cast<std::uint64_t>(tid + 1) << 32) | count;
}

/// Per-thread op lists; pure function of (seed, threads, ops, line counts).
std::vector<std::vector<Op>> generate_ops(const WorkloadSpec& spec);

/// The MachineConfig a workload runs on (hooks not yet attached).
sim::MachineConfig workload_config(const WorkloadSpec& spec);

struct WorkloadResult {
  bool ran = false;       ///< false when the simulator threw (divergence)
  bool aborted = false;   ///< !ran due to a sim::SimAbort (watchdog/deadlock)
  std::string error;      ///< the exception message when !ran
  double elapsed = 0;
  std::uint64_t dir_lines = 0;
  sim::Line data_base_line = 0;  ///< line index of data line 0 (oracle key)

  // Inline SC shadow vs the simulator's final memory, index-aligned.
  std::vector<std::uint64_t> expected_data, final_data;        // per line
  std::vector<std::uint64_t> expected_counter, final_counter;  // per line
  std::vector<std::uint64_t> expected_slot, final_slot;        // per thread
};

/// A workload instance as a pausable object: the machine, the expanded op
/// schedule and the inline SC shadow, advanced in engine-step increments.
/// run_workload is the run-to-completion convenience on top. Pausing lets
/// the snapshot layer (capmem::snap) capture mid-schedule state and the
/// differ bisect the engine step at which a divergence first appears.
class WorkloadRun {
 public:
  /// Builds the machine, allocates the buffers and registers the thread
  /// programs; nothing executes until run_until. Observer semantics match
  /// run_workload: `checker` (nullable) is attached as the machine's check
  /// observer, `trace`/`attr`/`metrics` are pure observers.
  WorkloadRun(const WorkloadSpec& spec, Checker* checker,
              obs::TraceSink* trace = nullptr,
              obs::attr::Sink* attr = nullptr,
              obs::Registry* metrics = nullptr);
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;
  ~WorkloadRun();

  /// Advances the schedule until it completes or the engine's cumulative
  /// step counter reaches `step_limit` (0 = run to completion). Returns
  /// true once the schedule is finished — including by a captured
  /// simulator exception (inspect errored()/take_result). Pausing is
  /// transparent: any pause/resume split yields the exact bytes of an
  /// uninterrupted run.
  bool run_until(std::uint64_t step_limit);

  bool finished() const { return finished_; }
  /// True when the simulator threw (divergence or abort) — the schedule
  /// cannot be advanced further.
  bool errored() const { return errored_; }
  /// Engine steps executed so far.
  std::uint64_t steps() const;

  sim::Machine& machine() { return *machine_; }
  const sim::Machine& machine() const { return *machine_; }

  /// Final sweeps (directory invariants, checker residency) plus shadow /
  /// final-memory collection. Requires finished(); call once.
  WorkloadResult take_result();

 private:
  WorkloadSpec spec_;
  Checker* checker_;
  fault::FaultPlan plan_;  ///< borrowed by the machine config when severity>0
  std::unique_ptr<sim::Machine> machine_;
  std::vector<std::vector<Op>> ops_;
  int nops_ = 0;
  std::uint64_t data_ = 0, counters_ = 0, slots_ = 0;  // sim::Addr
  std::vector<std::uint64_t> priv_;
  std::vector<std::vector<std::uint64_t>> wcount_;
  std::vector<std::uint64_t> fs_count_;
  WorkloadResult out_;
  bool finished_ = false;
  bool errored_ = false;
  bool collected_ = false;
};

/// Builds the machine, runs the expanded schedule, and returns shadow +
/// final memory. `checker` (nullable) is attached as MachineConfig::check
/// and final-swept after the run; `trace` (nullable) receives the machine's
/// trace events and the checker's violation instants; `attr` (nullable)
/// collects the machine's virtual-time attribution ledger; `metrics`
/// (nullable) receives its end-of-run component metrics.
WorkloadResult run_workload(const WorkloadSpec& spec, Checker* checker,
                            obs::TraceSink* trace = nullptr,
                            obs::attr::Sink* attr = nullptr,
                            obs::Registry* metrics = nullptr);

}  // namespace capmem::check
