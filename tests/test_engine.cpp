// Engine semantics: virtual-time ordering, barriers, parking/waking,
// determinism, deadlock detection.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/fanout.hpp"

namespace capmem::sim {
namespace {

TEST(Engine, RunsSingleTaskToCompletion) {
  Engine e(1);
  bool done = false;
  auto prog = [&]() -> Task {
    co_await Advance{10.0};
    co_await Advance{5.0};
    done = true;
  };
  e.spawn(prog());
  e.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(e.now(), 15.0);
  EXPECT_EQ(e.live_tasks(), 0);
}

TEST(Engine, InterleavesTasksInVirtualTimeOrder) {
  Engine e(1);
  std::vector<int> order;
  auto prog = [&](int id, Nanos step) -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await Advance{step};
      order.push_back(id);
    }
  };
  e.spawn(prog(0, 10.0));  // acts at t=10,20,30
  e.spawn(prog(1, 4.0));   // acts at t=4,8,12
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 0, 1, 0, 0}));
}

TEST(Engine, AdvanceToTakesMax) {
  Engine e(1);
  Nanos observed = -1;
  auto prog = [&]() -> Task {
    co_await Advance{50.0};
    co_await AdvanceTo{20.0};  // in the past: no-op
    co_await AdvanceTo{80.0};
  };
  e.spawn(prog());
  e.run();
  observed = e.now();
  EXPECT_DOUBLE_EQ(observed, 80.0);
}

TEST(Engine, SyncAlignsClocksToMax) {
  Engine e(1);
  std::vector<Nanos> after(2, 0);
  Engine* ep = &e;
  auto prog = [&, ep](int id, Nanos work) -> Task {
    co_await Advance{work};
    co_await SyncPoint{};
    after[static_cast<std::size_t>(id)] =
        ep->task_handle(id).promise().clock;
  };
  e.spawn(prog(0, 100.0));
  e.spawn(prog(1, 7.0));
  e.run();
  EXPECT_DOUBLE_EQ(after[0], 100.0);
  EXPECT_DOUBLE_EQ(after[1], 100.0);
}

TEST(Engine, SyncReleasedWhenOtherTaskFinishes) {
  // One task syncs, the other finishes without syncing: the barrier must
  // release once only live tasks remain.
  // The release happens at the worker's finish (t=5), after the syncer's
  // own clock (0): the syncer resumes at the engine clock, not behind it.
  Engine e(1);
  bool released = false;
  Nanos released_at = -1;
  Engine* ep = &e;
  auto syncer = [&, ep]() -> Task {
    co_await SyncPoint{};
    released = true;
    released_at = ep->task_handle(0).promise().clock;
  };
  auto worker = [&]() -> Task { co_await Advance{5.0}; };
  e.spawn(syncer());
  e.spawn(worker());
  e.run();
  EXPECT_TRUE(released);
  EXPECT_DOUBLE_EQ(released_at, 5.0);
}

TEST(Engine, ParkAndNotifyWakesWithVisibleTime) {
  Engine e(1);
  Nanos woke_at = -1;
  auto waiter = [&]() -> Task {
    struct ParkOnce {
      Engine* e;
      Nanos* woke_at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        Nanos* w = woke_at;
        e->park(42, h, [h, w](Nanos visible) {
          h.promise().clock = std::max(h.promise().clock, visible);
          *w = h.promise().clock;
          return true;
        });
      }
      void await_resume() const noexcept {}
    };
    co_await ParkOnce{&e, &woke_at};
  };
  auto writer = [&]() -> Task {
    co_await Advance{33.0};
    e.notify(42, 33.0);
  };
  e.spawn(waiter());
  e.spawn(writer());
  e.run();
  EXPECT_DOUBLE_EQ(woke_at, 33.0);
}

TEST(Engine, NotifyKeepsUnsatisfiedWaitersParked) {
  Engine e(1);
  int wakes = 0;
  auto waiter = [&]() -> Task {
    struct ParkTwice {
      Engine* e;
      int* wakes;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        int* w = wakes;
        e->park(7, h, [h, w](Nanos visible) {
          ++*w;
          if (*w < 2) return false;  // stay parked on first notify
          h.promise().clock = std::max(h.promise().clock, visible);
          return true;
        });
      }
      void await_resume() const noexcept {}
    };
    co_await ParkTwice{&e, &wakes};
  };
  auto writer = [&]() -> Task {
    co_await Advance{5.0};
    e.notify(7, 5.0);
    co_await Advance{5.0};
    e.notify(7, 10.0);
  };
  e.spawn(waiter());
  e.spawn(writer());
  e.run();
  EXPECT_EQ(wakes, 2);
}

TEST(Engine, DeadlockIsReportedNotHung) {
  Engine e(1);
  auto waiter = [&]() -> Task {
    struct ParkForever {
      Engine* e;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        e->park(99, h, [](Nanos) { return false; });
      }
      void await_resume() const noexcept {}
    };
    co_await ParkForever{&e};
  };
  e.spawn(waiter());
  EXPECT_THROW(e.run(), CheckError);
}

TEST(Engine, DeadlockDiagnosticNamesTheStuckTask) {
  // The report must identify *which* task is stuck and when it parked, so a
  // hung benchmark is debuggable from the exception text alone.
  Engine e(1);
  auto waiter = [&]() -> Task {
    co_await Advance{17.0};
    struct ParkForever {
      Engine* e;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        e->park(99, h, [](Nanos) { return false; });
      }
      void await_resume() const noexcept {}
    };
    co_await ParkForever{&e};
  };
  e.spawn(waiter());
  try {
    e.run();
    FAIL() << "expected a deadlock report";
  } catch (const CheckError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("tid 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("parked at t=17"), std::string::npos) << msg;
  }
}

TEST(Engine, DeadlockIsAStructuredSimAbort) {
  // The deadlock report is now a SimAbort: still a CheckError (the two
  // tests above keep catching it), but carrying kind/tid/park-age fields so
  // harnesses can triage without parsing the message, and classified as
  // deterministic — retrying the same seed deadlocks again.
  Engine e(1);
  auto waiter = [&]() -> Task {
    co_await Advance{17.0};
    struct ParkForever {
      Engine* e;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        e->park(99, h, [](Nanos) { return false; });
      }
      void await_resume() const noexcept {}
    };
    co_await ParkForever{&e};
  };
  e.spawn(waiter());
  try {
    e.run();
    FAIL() << "expected a deadlock abort";
  } catch (const SimAbort& err) {
    EXPECT_EQ(err.kind(), AbortKind::kDeadlock);
    EXPECT_EQ(err.stuck_tid(), 0);
    EXPECT_EQ(err.failure_class(), FailureClass::kDeterministic);
  }
}

TEST(Engine, StepBudgetTripsLivelockNamingTheStuckTask) {
  // A livelocked schedule — a spinner polling a flag line that is never
  // written — deadlock detection can't catch: there is always a runnable
  // task. The step budget must stop it with the same stuck-task diagnostics
  // the deadlock report carries (mirroring DeadlockDiagnosticNamesTheStuckTask).
  Engine e(1);
  WatchdogBudget wd;
  wd.max_steps = 200;
  e.set_watchdog(wd);
  auto waiter = [&]() -> Task {
    co_await Advance{17.0};
    struct ParkForever {
      Engine* e;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        e->park(55, h, [](Nanos) { return false; });
      }
      void await_resume() const noexcept {}
    };
    co_await ParkForever{&e};  // tid 0: waits on a line no one writes
  };
  auto spinner = [&]() -> Task {
    for (;;) co_await Advance{1.0};  // tid 1: polls forever
  };
  e.spawn(waiter());
  e.spawn(spinner());
  try {
    e.run();
    FAIL() << "expected the step budget to trip";
  } catch (const SimAbort& err) {
    EXPECT_EQ(err.kind(), AbortKind::kLivelock);
    EXPECT_EQ(err.failure_class(), FailureClass::kTimeout);
    EXPECT_GT(err.steps(), 200u);
    // The longest-parked task is named, with its park age.
    EXPECT_EQ(err.stuck_tid(), 0);
    EXPECT_GT(err.stuck_park_age(), 0.0);
    const std::string msg = err.what();
    EXPECT_NE(msg.find("livelock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("step budget 200 exceeded"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("tid 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("parked at t=17"), std::string::npos) << msg;
  }
}

TEST(Engine, ParkAgeBudgetTripsLivelock) {
  Engine e(1);
  WatchdogBudget wd;
  wd.max_park_age_ns = 100.0;
  e.set_watchdog(wd);
  auto waiter = [&]() -> Task {
    struct ParkForever {
      Engine* e;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        e->park(55, h, [](Nanos) { return false; });
      }
      void await_resume() const noexcept {}
    };
    co_await ParkForever{&e};
  };
  auto spinner = [&]() -> Task {
    for (;;) co_await Advance{1.0};
  };
  e.spawn(waiter());
  e.spawn(spinner());
  try {
    e.run();
    FAIL() << "expected the park-age budget to trip";
  } catch (const SimAbort& err) {
    EXPECT_EQ(err.kind(), AbortKind::kLivelock);
    EXPECT_GT(err.stuck_park_age(), 100.0);
  }
}

TEST(Engine, VirtualTimeBudgetTripsBudgetExceeded) {
  Engine e(1);
  WatchdogBudget wd;
  wd.max_virtual_ns = 50.0;
  e.set_watchdog(wd);
  auto runner = [&]() -> Task {
    for (;;) co_await Advance{5.0};
  };
  e.spawn(runner());
  try {
    e.run();
    FAIL() << "expected the virtual-time budget to trip";
  } catch (const SimAbort& err) {
    EXPECT_EQ(err.kind(), AbortKind::kBudgetExceeded);
    EXPECT_EQ(err.failure_class(), FailureClass::kTimeout);
    EXPECT_GT(err.at(), 50.0);
  }
  // And it is still catchable as the historical CheckError.
  Engine e2(1);
  e2.set_watchdog(wd);
  auto runner2 = [&]() -> Task {
    for (;;) co_await Advance{5.0};
  };
  e2.spawn(runner2());
  EXPECT_THROW(e2.run(), CheckError);
}

TEST(Engine, UnarmedWatchdogChangesNothing) {
  // Default budgets (all zero) must leave a long run untouched.
  Engine e(1);
  EXPECT_FALSE(e.watchdog().armed());
  int laps = 0;
  auto runner = [&]() -> Task {
    for (int i = 0; i < 5000; ++i) {
      co_await Advance{1.0};
      ++laps;
    }
  };
  e.spawn(runner());
  e.run();
  EXPECT_EQ(laps, 5000);
}

TEST(Engine, BarrierMismatchIsDeadlock) {
  Engine e(1);
  auto a = [&]() -> Task { co_await SyncPoint{}; };
  auto b = [&]() -> Task {
    struct ParkForever {
      Engine* e;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        e->park(1, h, [](Nanos) { return false; });
      }
      void await_resume() const noexcept {}
    };
    co_await ParkForever{&e};
  };
  e.spawn(a());
  e.spawn(b());
  EXPECT_THROW(e.run(), CheckError);
}

TEST(Engine, TaskExceptionPropagates) {
  Engine e(1);
  auto prog = [&]() -> Task {
    co_await Advance{1.0};
    throw std::runtime_error("boom");
  };
  e.spawn(prog());
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, CallbacksInterleaveWithTasks) {
  Engine e(1);
  std::vector<int> order;
  e.schedule(5.0, [&] { order.push_back(100); });
  e.schedule(15.0, [&] { order.push_back(200); });
  auto prog = [&]() -> Task {
    co_await Advance{10.0};
    order.push_back(1);
    co_await Advance{10.0};
    order.push_back(2);
  };
  e.spawn(prog());
  e.run();
  EXPECT_EQ(order, (std::vector<int>{100, 1, 200, 2}));
}

// --- determinism transcript regression -------------------------------------
//
// A fixed-seed mixed park/unpark/advance/sync/callback schedule whose full
// scheduling trace is compared against the checked-in transcript below. Any
// queue or waiter-table rewrite that reorders resumes, wakeups (including
// the FIFO tie-break on equal timestamps) or barrier releases fails loudly
// here. Refresh recipe after an *intentional* semantic change:
//
//   ./tests/test_engine --gtest_filter=Engine.DeterminismTranscript ^
//       2>/dev/null | sed -n '/BEGIN TRANSCRIPT/,/END TRANSCRIPT/p'
//
// (join the two lines; the continuation marker avoids a multi-line-comment
// warning)
//
// (the test prints the actual transcript between those markers on mismatch;
// paste it over kExpectedTranscript).

namespace transcript {

class TranscriptSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& e) override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s t=%.17g tid=%d line=%llu dur=%.17g a=%d\n",
                  obs::to_string(e.kind), e.t, e.tid,
                  static_cast<unsigned long long>(e.line), e.dur, e.a);
    out += buf;
  }
  std::string out;
};

struct Shared {
  Engine* e;
  // Per-ring-slot flag values plus the observer flag (index 4).
  std::array<std::uint64_t, 5> vals{};
};

/// Sets vals[key] = v and notifies waiters at the writer's current clock
/// (the store-then-notify shape every timed write in machine.cpp has).
struct StoreNotify {
  Shared* s;
  std::size_t key;
  std::uint64_t v;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Task::Handle h) const {
    s->vals[key] = v;
    s->e->notify(key, h.promise().clock);
    s->e->requeue(h);
  }
  void await_resume() const noexcept {}
};

/// Parks until vals[key] >= target (re-checks on every notify; wakes with
/// the store's visibility time, like WaitU64 does).
struct ParkUntil {
  Shared* s;
  std::size_t key;
  std::uint64_t target;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Task::Handle h) const {
    if (s->vals[key] >= target) {
      s->e->requeue(h);
      return;
    }
    Shared* sp = s;
    const std::size_t k = key;
    const std::uint64_t tgt = target;
    s->e->park(k, h, [sp, k, tgt, h](Nanos visible) {
      if (sp->vals[k] < tgt) return false;
      h.promise().clock = std::max(h.promise().clock, visible);
      return true;
    });
  }
  void await_resume() const noexcept {}
};

// The checked-in transcript (see refresh recipe above).
const char kExpectedTranscript[] = R"(task-resume t=0 tid=0 line=0 dur=0 a=-1
task-resume t=0 tid=1 line=0 dur=0 a=-1
task-resume t=0 tid=2 line=0 dur=0 a=-1
task-resume t=0 tid=3 line=0 dur=0 a=-1
task-resume t=0 tid=4 line=0 dur=0 a=-1
task-resume t=0 tid=5 line=0 dur=0 a=-1
task-resume t=0.25 tid=4 line=0 dur=0 a=-1
task-park t=0.25 tid=4 line=4 dur=0 a=-1
task-resume t=0.25 tid=5 line=0 dur=0 a=-1
task-park t=0.25 tid=5 line=4 dur=0 a=-1
task-resume t=1 tid=1 line=0 dur=0 a=-1
task-resume t=1 tid=1 line=0 dur=0 a=-1
task-park t=1 tid=1 line=1 dur=0 a=-1
task-resume t=3 tid=0 line=0 dur=0 a=-1
task-unpark t=1 tid=1 line=1 dur=2 a=-1
task-resume t=3 tid=3 line=0 dur=0 a=-1
task-resume t=3 tid=1 line=0 dur=0 a=-1
task-resume t=3 tid=0 line=0 dur=0 a=-1
task-resume t=3 tid=3 line=0 dur=0 a=-1
task-park t=3 tid=3 line=3 dur=0 a=-1
task-resume t=3 tid=0 line=0 dur=0 a=-1
task-resume t=3 tid=0 line=0 dur=0 a=-1
task-resume t=3 tid=0 line=0 dur=0 a=-1
task-resume t=3 tid=0 line=0 dur=0 a=-1
task-unpark t=0.25 tid=4 line=4 dur=2.75 a=-1
task-unpark t=0.25 tid=5 line=4 dur=2.75 a=-1
task-resume t=3 tid=4 line=0 dur=0 a=-1
task-park t=3 tid=4 line=4 dur=0 a=-1
task-resume t=3 tid=5 line=0 dur=0 a=-1
task-park t=3 tid=5 line=4 dur=0 a=-1
task-resume t=3 tid=0 line=0 dur=0 a=-1
task-park t=3 tid=0 line=0 dur=0 a=-1
task-resume t=3.5 tid=2 line=0 dur=0 a=-1
task-unpark t=3 tid=3 line=3 dur=0.5 a=-1
task-resume t=3.5 tid=1 line=0 dur=0 a=-1
task-resume t=3.5 tid=3 line=0 dur=0 a=-1
task-resume t=3.5 tid=2 line=0 dur=0 a=-1
task-resume t=3.5 tid=1 line=0 dur=0 a=-1
task-resume t=3.5 tid=2 line=0 dur=0 a=-1
task-resume t=3.5 tid=1 line=0 dur=0 a=-1
task-resume t=5.5 tid=1 line=0 dur=0 a=-1
task-resume t=5.5 tid=1 line=0 dur=0 a=-1
task-park t=5.5 tid=1 line=1 dur=0 a=-1
task-resume t=6 tid=2 line=0 dur=0 a=-1
task-resume t=6 tid=2 line=0 dur=0 a=-1
task-resume t=6 tid=2 line=0 dur=0 a=-1
task-resume t=6.5 tid=3 line=0 dur=0 a=-1
task-unpark t=3 tid=0 line=0 dur=3.5 a=-1
task-resume t=6.5 tid=2 line=0 dur=0 a=-1
task-resume t=6.5 tid=0 line=0 dur=0 a=-1
task-resume t=6.5 tid=3 line=0 dur=0 a=-1
task-resume t=6.5 tid=2 line=0 dur=0 a=-1
task-resume t=6.5 tid=3 line=0 dur=0 a=-1
task-resume t=6.5 tid=2 line=0 dur=0 a=-1
task-resume t=7 tid=3 line=0 dur=0 a=-1
task-resume t=7 tid=2 line=0 dur=0 a=-1
task-resume t=7 tid=3 line=0 dur=0 a=-1
task-resume t=7 tid=2 line=0 dur=0 a=-1
task-park t=7 tid=2 line=2 dur=0 a=-1
task-resume t=7 tid=3 line=0 dur=0 a=-1
task-resume t=8 tid=3 line=0 dur=0 a=-1
task-resume t=8 tid=3 line=0 dur=0 a=-1
task-resume t=8 tid=3 line=0 dur=0 a=-1
task-resume t=9 tid=0 line=0 dur=0 a=-1
task-unpark t=5.5 tid=1 line=1 dur=3.5 a=-1
task-resume t=9 tid=1 line=0 dur=0 a=-1
task-resume t=9 tid=0 line=0 dur=0 a=-1
task-resume t=9 tid=0 line=0 dur=0 a=-1
task-resume t=9 tid=0 line=0 dur=0 a=-1
task-resume t=10.5 tid=0 line=0 dur=0 a=-1
task-resume t=10.5 tid=0 line=0 dur=0 a=-1
task-unpark t=3 tid=4 line=4 dur=7.5 a=-1
task-unpark t=3 tid=5 line=4 dur=7.5 a=-1
task-resume t=10.5 tid=4 line=0 dur=0 a=-1
task-resume t=10.5 tid=5 line=0 dur=0 a=-1
task-resume t=10.5 tid=0 line=0 dur=0 a=-1
task-resume t=10.5 tid=0 line=0 dur=0 a=-1
task-resume t=12 tid=1 line=0 dur=0 a=-1
task-unpark t=7 tid=2 line=2 dur=5 a=-1
task-resume t=12 tid=2 line=0 dur=0 a=-1
task-resume t=12 tid=1 line=0 dur=0 a=-1
task-resume t=12 tid=1 line=0 dur=0 a=-1
sync-release t=12 tid=-1 line=0 dur=0 a=6
task-resume t=12 tid=3 line=0 dur=0 a=-1
task-finish t=12 tid=3 line=0 dur=0 a=-1
task-resume t=12 tid=4 line=0 dur=0 a=-1
task-finish t=12 tid=4 line=0 dur=0 a=-1
task-resume t=12 tid=5 line=0 dur=0 a=-1
task-finish t=12 tid=5 line=0 dur=0 a=-1
task-resume t=12 tid=0 line=0 dur=0 a=-1
task-finish t=12 tid=0 line=0 dur=0 a=-1
task-resume t=12 tid=2 line=0 dur=0 a=-1
task-finish t=12 tid=2 line=0 dur=0 a=-1
task-resume t=12 tid=1 line=0 dur=0 a=-1
task-finish t=12 tid=1 line=0 dur=0 a=-1
steps=72 now=12
)";

}  // namespace transcript

TEST(Engine, DeterminismTranscript) {
  using namespace transcript;
  constexpr int kRing = 4;
  constexpr int kRounds = 4;
  Engine e(2026);
  // The scheduler events reach the sink through the Fanout a Machine would
  // build, so the transcript also pins their trace translation.
  TranscriptSink sink;
  MachineConfig cfg = tiny_machine();
  cfg.trace = &sink;
  const Topology topo(cfg);
  const std::unique_ptr<Fanout> fanout = Fanout::make(cfg, topo);
  e.set_observer(fanout.get());
  Shared s{&e, {}};

  // Ring tasks: advance a per-task deterministic jitter (quantized so equal
  // timestamps and the FIFO tie-break actually occur), signal the right
  // neighbour's flag, then wait for our own — a neighbour barrier. Task 0
  // also bumps the observer flag each round. Everyone joins one final
  // engine barrier.
  auto ring = [&s](int i) -> Task {
    Rng rng(1000 + static_cast<std::uint64_t>(i));
    for (std::uint64_t r = 1; r <= kRounds; ++r) {
      co_await Advance{0.5 * static_cast<double>(rng.next_below(8))};
      co_await StoreNotify{&s, static_cast<std::size_t>((i + 1) % kRing), r};
      if (i == 0) co_await StoreNotify{&s, 4, r};
      co_await ParkUntil{&s, static_cast<std::size_t>(i), r};
    }
    co_await SyncPoint{};
  };
  // Two observers parked on the same key with the same target: one notify
  // satisfies both, pinning the FIFO wake order on a shared waiter list.
  auto observer = [&s](Nanos skew) -> Task {
    co_await Advance{skew};
    for (std::uint64_t r = 1; r <= 2; ++r) {
      co_await ParkUntil{&s, 4, 2 * r};
    }
    co_await SyncPoint{};
  };
  for (int i = 0; i < kRing; ++i) e.spawn(ring(i));
  e.spawn(observer(0.25));
  e.spawn(observer(0.25));
  // Bare callbacks interleaved with task steps; the no-op notifies must not
  // wake anyone (predicates re-check the flag value).
  e.schedule(1.25, [&s] { s.e->notify(0, 1.25); });
  e.schedule(3.25, [&s] { s.e->notify(4, 3.25); });
  e.run();

  char foot[64];
  std::snprintf(foot, sizeof foot, "steps=%llu now=%.17g\n",
                static_cast<unsigned long long>(e.steps()), e.now());
  sink.out += foot;
  if (sink.out != kExpectedTranscript) {
    std::printf("BEGIN TRANSCRIPT\n%sEND TRANSCRIPT\n", sink.out.c_str());
  }
  EXPECT_EQ(sink.out, kExpectedTranscript)
      << "scheduling order changed; see refresh recipe above";
}

TEST(Engine, ParkTableReclaimsSlotsAcrossCycles) {
  // Regression for the park table growing monotonically: waiters used to
  // stay in the table (as empty lists) after wake-all, so a run touching
  // many distinct wait keys leaked one slot per key. Park/wake 200 distinct
  // keys with at most one parked at a time; the pool high-water mark must
  // reflect the concurrency (1), not the key count.
  Engine e(1);
  constexpr int kCycles = 200;
  int wakes = 0;
  auto key_of = [](int c) { return 1000ull + static_cast<std::uint64_t>(c); };
  auto waiter = [&]() -> Task {
    struct ParkOn {
      Engine* e;
      std::uint64_t key;
      int* wakes;
      bool await_ready() const noexcept { return false; }
      void await_suspend(Task::Handle h) const {
        int* w = wakes;
        e->park(key, h, [h, w](Nanos visible) {
          h.promise().clock = std::max(h.promise().clock, visible);
          ++*w;
          return true;
        });
      }
      void await_resume() const noexcept {}
    };
    for (int c = 0; c < kCycles; ++c) {
      co_await ParkOn{&e, key_of(c), &wakes};
    }
  };
  auto writer = [&]() -> Task {
    Nanos t = 0;
    for (int c = 0; c < kCycles; ++c) {
      co_await Advance{1.0};
      t += 1.0;
      e.notify(key_of(c), t);
    }
  };
  e.spawn(waiter());
  e.spawn(writer());
  e.run();
  EXPECT_EQ(wakes, kCycles);
  EXPECT_EQ(e.parked_keys(), 0u);
  EXPECT_LE(e.parked_pool_slots(), 2u);
}

TEST(Engine, DeterministicStepCount) {
  auto run_once = [] {
    Engine e(123);
    auto prog = [](int n) -> Task {
      for (int i = 0; i < n; ++i) co_await Advance{1.5};
    };
    e.spawn(prog(10));
    e.spawn(prog(20));
    e.run();
    return e.steps();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace capmem::sim
