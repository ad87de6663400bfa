// Machine: the public facade of the simulated KNL.
//
// Usage pattern (a "program" is a coroutine running on one simulated HW
// thread):
//
//   Machine m(knl7210(ClusterMode::kSNC4, MemoryMode::kFlat));
//   Addr buf = m.alloc("buf", MiB(1), {MemKind::kMCDRAM, std::nullopt});
//   m.add_thread({.core = 0, .smt = 0}, [&](Ctx& ctx) -> Task {
//     co_await ctx.copy(dst, src, MiB(1), {.nt = true});
//     co_await ctx.sync();
//   });
//   m.run();
//
// A Machine executes exactly one run(): construct a fresh one per
// experiment repetition (construction is cheap; all heavy state is lazy).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/address.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/fanout.hpp"
#include "sim/memsys.hpp"
#include "sim/thread.hpp"
#include "sim/topology.hpp"

namespace capmem::sim {

class Machine;
class Ctx;

/// Options for buffer-level operations.
struct BufOpts {
  bool vector = true;
  bool nt = false;
  /// Lines processed per scheduler step. The default of 1 keeps every
  /// resource reservation in global virtual-time order, which concurrent
  /// bandwidth sharing requires (larger chunks let one thread reserve
  /// channel slots "in the future", inflating the queueing other threads
  /// see). Raise it only for phases with no cross-thread resource sharing.
  int chunk_lines = 1;
};

namespace detail {

/// Awaiter performing one timed line access.
struct LineOp {
  Machine* m;
  Ctx* ctx;
  Addr addr;
  AccessType type;
  AccessOpts opts;
  std::uint64_t store_value = 0;  // for write_u64 / fetch_add delta
  bool is_u64 = false;
  bool is_rmw = false;            // fetch_add: loaded = old, stores old+delta
  AccessResult out;
  std::uint64_t loaded = 0;

  bool await_ready() const noexcept { return false; }
  void await_suspend(Task::Handle h);
  AccessResult await_resume() const noexcept { return out; }
};

/// Awaiter that reads a 64-bit value with timing; resumes to the value
/// (also used for fetch_add, resuming to the previous value).
struct ReadU64 {
  LineOp inner;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Task::Handle h) { inner.await_suspend(h); }
  std::uint64_t await_resume() const noexcept { return inner.loaded; }
};

/// Awaiter processing a multi-line buffer operation in chunks, so
/// concurrent threads interleave their resource reservations fairly.
struct RangeOp {
  enum class Kind { kRead, kWrite, kCopy, kTriad };
  Machine* m;
  Ctx* ctx;
  Kind kind;
  Addr a = 0;  // dst (write/copy/triad) or src (read)
  Addr b = 0;  // src (copy), src1 (triad)
  Addr c = 0;  // src2 (triad)
  std::uint64_t bytes = 0;
  BufOpts opts;
  bool move_data = false;

  std::uint64_t done_lines = 0;
  std::uint64_t total_lines = 0;

  // Allocations owning a/b/c, resolved once per op instead of once per
  // line (copy and triad alternate buffers, which defeats the per-thread
  // one-entry memo). Re-resolved only if the address space changed while
  // the op was suspended (`space_epoch` vs Machine::space_epoch_).
  const Allocation* alloc_a = nullptr;
  const Allocation* alloc_b = nullptr;
  const Allocation* alloc_c = nullptr;
  std::uint64_t space_epoch = 0;

  bool await_ready() noexcept {
    total_lines = lines_for(bytes);
    return total_lines == 0;
  }
  bool await_suspend(Task::Handle h);  // returns false when finished
  void await_resume() const noexcept {}

  /// One chunk step: advances the task clock through up to `chunk_lines`
  /// lines of the kernel. Shared by the initial suspend and the pump
  /// callbacks (machine.cpp).
  void step(Task::Handle h);

 private:
  void resolve_allocations();
};

/// Awaiter that spin-waits until a predicate on a 64-bit word holds.
struct WaitU64 {
  Machine* m;
  Ctx* ctx;
  Addr addr;
  std::uint64_t expect = 0;
  bool wait_not_equal = false;  // false: until ==expect; true: until !=expect
  std::uint64_t seen = 0;

  bool await_ready() const noexcept { return false; }
  void await_suspend(Task::Handle h);
  std::uint64_t await_resume() const noexcept { return seen; }

 private:
  bool matches(std::uint64_t v) const {
    return wait_not_equal ? v != expect : v == expect;
  }
  bool probe(Task::Handle h, Nanos at);
};

}  // namespace detail

/// Per-simulated-thread context: the API surface available inside programs.
class Ctx {
 public:
  int tid() const { return tid_; }
  int core() const { return slot_.core; }
  int smt() const { return slot_.smt; }
  int tile() const;
  /// This thread's cluster domain under the machine's mode.
  int domain() const;

  /// Current virtual time of this thread.
  Nanos now() const;

  /// Simulated TSC read: quantized, per-core skewed (paper §III.B).
  std::uint64_t rdtsc() const;

  Machine& machine() { return *m_; }

  // --- timed operations (all must be co_awaited) ---

  /// Pure compute for `ns` nanoseconds.
  Advance compute(Nanos ns) const { return Advance{ns}; }

  /// Harness barrier: aligns all live threads' clocks (zero simulated
  /// cost). Stands in for the TSC-window synchronization.
  SyncPoint sync() const { return SyncPoint{}; }

  /// Sleeps until virtual time `t` (no-op if already past).
  AdvanceTo until(Nanos t) const { return AdvanceTo{t}; }

  /// Sleeps until this core's raw TSC reads at least `ticks` — the
  /// spin-until-TSC primitive the window-synchronized harness uses (the
  /// conversion to virtual time applies the core's true skew internally,
  /// exactly like hardware spinning on rdtsc would).
  AdvanceTo until_tsc(std::uint64_t ticks) const;

  /// Timed single-line read / write (no data movement).
  detail::LineOp touch(Addr a, AccessType t, AccessOpts o = {});

  /// Timed 64-bit load/store with data.
  detail::ReadU64 read_u64(Addr a, AccessOpts o = {});
  detail::LineOp write_u64(Addr a, std::uint64_t v, AccessOpts o = {});

  /// Atomic fetch-and-add (lock xadd): one exclusive (write-class) access;
  /// resumes to the previous value. Atomic because simulator operations
  /// are indivisible in virtual time.
  detail::ReadU64 fetch_add_u64(Addr a, std::uint64_t delta,
                                AccessOpts o = {});

  /// Spin until the word at `a` equals / no longer equals `v`.
  detail::WaitU64 wait_eq(Addr a, std::uint64_t v);
  detail::WaitU64 wait_ne(Addr a, std::uint64_t v);

  /// Streaming kernels over [base, base+bytes):
  ///   read_buf : a = b[i]    (one load stream)
  ///   write_buf: b[i] = a    (one store stream; RFO unless nt)
  ///   copy     : a[i] = b[i] (moves data when both buffers carry data)
  ///   triad    : a[i] = b[i] + s*c[i]
  detail::RangeOp read_buf(Addr src, std::uint64_t bytes, BufOpts o = {});
  detail::RangeOp write_buf(Addr dst, std::uint64_t bytes, BufOpts o = {});
  detail::RangeOp copy(Addr dst, Addr src, std::uint64_t bytes,
                       BufOpts o = {});
  detail::RangeOp triad(Addr dst, Addr src1, Addr src2, std::uint64_t bytes,
                        BufOpts o = {});

  // --- untimed data access (harness setup/verification only) ---
  std::uint64_t peek_u64(Addr a) const;
  void poke_u64(Addr a, std::uint64_t v);

 private:
  friend class Machine;
  friend struct detail::LineOp;
  friend struct detail::RangeOp;
  friend struct detail::WaitU64;

  /// Allocation lookup memoized per thread (each simulated thread streams
  /// over its own buffers, so the one-entry memo hits almost always).
  const Allocation& allocation_of(Addr a);

  Machine* m_ = nullptr;
  int tid_ = -1;
  CpuSlot slot_;
  const Allocation* alloc_memo_ = nullptr;
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg);

  const MachineConfig& config() const { return cfg_; }
  const Topology& topology() const { return topo_; }
  MemSystem& memsys() { return mem_; }
  const MemSystem& memsys() const { return mem_; }
  Engine& engine() { return engine_; }
  AddressSpace& space() { return space_; }

  /// Allocates a buffer. `with_data` buffers carry real bytes (flags,
  /// payloads, sort data); dataless buffers are timing-only.
  Addr alloc(std::string name, std::uint64_t bytes, Placement place = {},
             bool with_data = false);
  void free(Addr base);

  /// Registers a program pinned to `slot`. Returns its thread id.
  using Program = std::function<Task(Ctx&)>;
  int add_thread(CpuSlot slot, Program program);

  /// Runs all registered programs to completion. One-shot.
  void run();

  /// Runs until completion or until the engine's cumulative step counter
  /// reaches `step_limit` (0 = unlimited). Returns true once the schedule
  /// has completed (the post-run epilogue — attribution flush, metrics —
  /// runs exactly once, on the completing call). Pausing is transparent:
  /// a paused machine resumed to completion is byte-identical to an
  /// uninterrupted run().
  bool run_until(std::uint64_t step_limit);

  /// Checkpoint support (capmem::snap): exports engine + memory system +
  /// address space, at any pause point, for digesting and differential
  /// verification. `with_cache_planes` false leaves the L1/L2 planes out
  /// (see MemSystem::export_state).
  state::MachineState export_state(bool with_cache_planes = true) const;

  /// Virtual time at which the last event executed.
  Nanos elapsed() const { return engine_.now(); }

  /// Untimed flush of a whole buffer from all caches (harness resets).
  void flush_buffer(Addr base, std::uint64_t bytes,
                    bool drop_mcdram_cache = true);

  /// Placement of the allocation containing `a` (cached lookup).
  const Allocation& allocation_of(Addr a);

  /// Changes whenever the address space does (alloc, free).
  /// Awaiters that resolve allocations or backing bytes once per op compare
  /// it to know their resolution is still current.
  std::uint64_t space_epoch() const { return space_epoch_; }

  /// TSC skew of a core (tests need it to validate the window sync).
  Nanos tsc_skew(int core) const {
    return tsc_skew_.at(static_cast<std::size_t>(core));
  }

  // --- resource utilization accessors (post-run observability) ---

  /// Busy time of one DRAM / MCDRAM channel so far.
  Nanos dram_channel_busy(int channel) const {
    return mem_.dram_pool().busy(channel);
  }
  Nanos mcdram_channel_busy(int channel) const {
    return mem_.mcdram_pool().busy(channel);
  }
  /// Pool utilization over the run: total busy time across channels divided
  /// by (channels * elapsed). 0 before run() or for a zero-length run.
  double dram_utilization() const {
    const Nanos t = elapsed();
    return t > 0 ? mem_.dram_pool().busy_total() /
                       (t * mem_.dram_pool().size())
                 : 0.0;
  }
  double mcdram_utilization() const {
    const Nanos t = elapsed();
    return t > 0 ? mem_.mcdram_pool().busy_total() /
                       (t * mem_.mcdram_pool().size())
                 : 0.0;
  }
  /// Busy time of one core's load/store issue ports.
  Nanos core_issue_busy(int core) const { return mem_.core_issue_busy(core); }
  /// Busy time of one tile's L2 supply port (cache-to-cache source side).
  Nanos l2_supply_busy(int tile) const { return mem_.l2_supply_busy(tile); }

 private:
  friend class Ctx;
  friend struct detail::LineOp;
  friend struct detail::RangeOp;
  friend struct detail::WaitU64;

  /// Drops the allocation memos (machine-level and per-thread) after any
  /// address-space mutation.
  void invalidate_alloc_memos();

  MachineConfig cfg_;
  Topology topo_;
  /// The observer fanned out to MachineConfig::trace/metrics/check/attr
  /// (null when none is attached). Declared before the components that
  /// report to it.
  std::unique_ptr<Fanout> obs_;
  Engine engine_;
  MemSystem mem_;
  AddressSpace space_;
  std::deque<Ctx> ctxs_;
  std::vector<Program> programs_;
  std::vector<Nanos> tsc_skew_;
  const Allocation* last_alloc_ = nullptr;
  /// Bumped on every address-space mutation; in-flight RangeOps (and the
  /// sort awaiters, through space_epoch()) compare it to know their
  /// resolved allocations are still current.
  std::uint64_t space_epoch_ = 1;
  bool ran_ = false;       ///< run()/run_until() has started the schedule
  bool finished_ = false;  ///< schedule completed; epilogue already ran
};

}  // namespace capmem::sim
