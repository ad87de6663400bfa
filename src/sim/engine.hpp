// Deterministic virtual-time scheduler for simulated hardware threads.
//
// Each simulated thread is a C++20 coroutine (`Task`). The engine resumes,
// at every step, the runnable task with the smallest local clock, so all
// global state mutations (coherence transitions, resource reservations)
// happen in nondecreasing virtual time — which makes simple reservation
// queues exact and the whole simulation bit-reproducible.
//
// Tasks suspend through awaiters that either advance their clock (memory
// operations, compute) or park them on a wait key (spin-waiting on a flag
// line) until a store wakes them. A task that never unparks is a deadlock
// and run() reports it instead of hanging.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/abort.hpp"
#include "sim/event_queue.hpp"
#include "sim/line_table.hpp"
#include "sim/small_vec.hpp"
#include "sim/state.hpp"

namespace capmem::sim {

class Engine;
class Observer;

/// A simulated-thread coroutine. Fire-and-forget: the engine takes ownership
/// of the frame when the task is spawned.
class Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Engine* engine = nullptr;
    int tid = -1;        ///< engine task id (== simulated thread id)
    Nanos clock = 0;     ///< local virtual time
    bool done = false;
    std::exception_ptr error;

    Task get_return_object() {
      return Task{Handle::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(Handle h) const noexcept {
        h.promise().done = true;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  Task(Task&& o) noexcept : h_(o.h_) { o.h_ = {}; }
  Task& operator=(Task&&) = delete;
  Task(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();  // only if never spawned
  }

  /// Transfers frame ownership to the engine (called by Engine::spawn).
  Handle release() {
    Handle h = h_;
    h_ = {};
    return h;
  }

 private:
  explicit Task(Handle h) : h_(h) {}
  Handle h_;
};

/// Suspends the current task and advances its clock by `dt`.
struct Advance {
  Nanos dt;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Task::Handle h) const;
  void await_resume() const noexcept {}
};

/// Suspends and sets the task clock to max(clock, t).
struct AdvanceTo {
  Nanos t;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Task::Handle h) const;
  void await_resume() const noexcept {}
};

/// Joins the engine-level synchronization barrier (a harness primitive: it
/// aligns all live task clocks to their maximum at zero simulated cost,
/// standing in for the TSC-window synchronization of the real benchmarks).
struct SyncPoint {
  bool await_ready() const noexcept { return false; }
  void await_suspend(Task::Handle h) const;
  void await_resume() const noexcept {}
};

class Engine {
 public:
  explicit Engine(std::uint64_t seed);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a task; it becomes runnable at virtual time `start`.
  /// Returns its task id (dense, starting at 0).
  int spawn(Task task, Nanos start = 0);

  /// Runs until every task finished. Throws on task exceptions; raises
  /// SimAbort (a CheckError) on deadlocks (tasks parked forever / barrier
  /// mismatch) and on tripped watchdog budgets instead of hanging or
  /// killing the process.
  void run();

  /// Runs until the schedule completes or the cumulative step counter
  /// reaches `step_limit` (0 = unlimited, i.e. run()). Returns true when
  /// the run queue drained; false when paused at the limit. Pausing is
  /// transparent: resuming with another run_until/run continues the exact
  /// same schedule, and checkpoints (capmem::snap) capture paused state.
  bool run_until(std::uint64_t step_limit);

  /// Checkpoint support (capmem::snap): exports the scheduler's complete
  /// observable state — clocks, step/sequence counters, RNG words, task
  /// states, run-queue entries (tasks by tid, callbacks by pool index),
  /// park table and barrier arrivals — in deterministic order.
  state::EngineState export_state() const;

  /// Arms (or disarms, with an all-zero budget) the watchdog. Must be set
  /// before run(); the disabled path costs one branch per step.
  void set_watchdog(const WatchdogBudget& b) {
    wd_ = b;
    wd_armed_ = b.armed();
  }
  const WatchdogBudget& watchdog() const { return wd_; }

  /// Virtual time of the most recently executed step.
  Nanos now() const { return global_time_; }

  /// Deterministic per-engine RNG (noise models draw from it).
  Rng& rng() { return rng_; }

  /// Attaches the observer (null to detach; sim/observer.hpp). The engine
  /// reports task scheduling (resume, park, unpark with the waking writer,
  /// finish, barrier waits and release, abort) and the scheduler-owned
  /// clock charges (compute advance, timer wait); observers never steer.
  void set_observer(Observer* obs) { obs_ = obs; }
  Observer* observer() const { return obs_; }

  int live_tasks() const { return live_; }
  int total_tasks() const { return static_cast<int>(tasks_.size()); }
  std::uint64_t steps() const { return steps_; }

  /// Wait keys currently holding at least one parked task.
  std::size_t parked_keys() const { return parked_.size(); }
  /// Waiter-list slots ever allocated by the park table (free-listed and
  /// reused after wake-all, so this plateaus on steady-state workloads —
  /// the memory-stability gauge tests assert exactly that).
  std::size_t parked_pool_slots() const { return parked_.pool_slots(); }

  /// Handle of task `tid` (valid between spawn and engine destruction).
  Task::Handle task_handle(int tid) const {
    return tasks_.at(static_cast<std::size_t>(tid));
  }

  // --- awaiter/machine interface ---

  /// Makes `h` runnable again at its current clock.
  void requeue(Task::Handle h);

  /// Schedules a bare callback at virtual time `t` (used by multi-line
  /// operation awaiters to pump their next chunk while the owning task
  /// stays suspended). Callbacks run interleaved with task steps in
  /// virtual-time order.
  void schedule(Nanos t, std::function<void()> fn);

  /// Parks `h` on `key` (a cache-line index). `try_wake(visible)` runs when
  /// a store to the key happens; it must either set the task clock and
  /// return true (the engine requeues it and removes the waiter) or return
  /// false to stay parked.
  void park(std::uint64_t key, Task::Handle h,
            std::function<bool(Nanos visible)> try_wake);

  /// Notifies waiters of a store to `key` becoming visible at `visible`.
  /// `writer_tid` names the storing task for critical-path edges (< 0:
  /// unknown writer; no edge is recorded).
  void notify(std::uint64_t key, Nanos visible, int writer_tid = -1);

  /// Barrier arrival (SyncPoint awaiter).
  void sync_arrive(Task::Handle h);

 private:
  struct Waiter {
    Task::Handle h;
    std::function<bool(Nanos)> try_wake;
    Nanos parked_at = 0;  ///< clock at park time (trace + diagnostics)
  };
  using WaiterList = SmallVec<Waiter, 4>;

  // Queue payloads are a tagged word: task entries carry the coroutine
  // frame address (always even), callback entries carry (pool index << 1)
  // | 1 — a queue entry is 24 bytes instead of the 56 the old QEntry with
  // an inline std::function needed.
  static std::uint64_t task_payload(Task::Handle h) {
    const auto p = reinterpret_cast<std::uint64_t>(h.address());
    CAPMEM_DCHECK((p & 1) == 0);
    return p;
  }

  void finish(Task::Handle h);
  void release_sync();
  void run_callback(std::uint64_t payload);
  void watchdog_check();
  [[noreturn]] void raise_abort(AbortKind kind, const std::string& reason);
  [[noreturn]] void report_deadlock();

  EventQueue run_q_;
  LineTable<WaiterList> parked_;
  /// 64-bit presence filter over parked wait keys: a zero bit proves no
  /// waiter, letting the per-store notify() miss in one branch. Set on
  /// park, reset only when the table drains (bits cannot be unset per-key).
  std::uint64_t park_filter_ = 0;
  static std::uint64_t filter_bit(std::uint64_t key) {
    return 1ull << ((key * 0x9E3779B97F4A7C15ull) >> 58);
  }
  std::vector<std::function<void()>> cb_pool_;
  std::vector<std::uint32_t> cb_free_;
  std::vector<Task::Handle> sync_q_;
  std::vector<Task::Handle> tasks_;
  Rng rng_;
  Nanos global_time_ = 0;
  std::uint64_t steps_ = 0;
  int live_ = 0;
  bool running_ = false;
  Observer* obs_ = nullptr;
  WatchdogBudget wd_;
  bool wd_armed_ = false;
};

}  // namespace capmem::sim
