#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "sim/observer.hpp"

namespace capmem::sim {

void Advance::await_suspend(Task::Handle h) const {
  CAPMEM_DCHECK(dt >= 0);
  auto& p = h.promise();
  const Nanos from = p.clock;
  p.clock += dt;
  if (Observer* o = p.engine->observer()) {
    o->on_charge(p.tid, obs::attr::TimeCat::kCompute, from, p.clock);
  }
  p.engine->requeue(h);
}

void AdvanceTo::await_suspend(Task::Handle h) const {
  auto& p = h.promise();
  const Nanos from = p.clock;
  p.clock = std::max(p.clock, t);
  if (Observer* o = p.engine->observer()) {
    o->on_charge(p.tid, obs::attr::TimeCat::kTimerWait, from, p.clock);
  }
  p.engine->requeue(h);
}

void SyncPoint::await_suspend(Task::Handle h) const {
  h.promise().engine->sync_arrive(h);
}

Engine::Engine(std::uint64_t seed) : rng_(seed) {}

Engine::~Engine() {
  for (Task::Handle h : tasks_) {
    if (h) h.destroy();
  }
}

int Engine::spawn(Task task, Nanos start) {
  CAPMEM_CHECK_MSG(!running_, "spawn during run() is not supported");
  Task::Handle h = task.release();
  CAPMEM_CHECK(h);
  const int tid = static_cast<int>(tasks_.size());
  h.promise().engine = this;
  h.promise().tid = tid;
  h.promise().clock = start;
  tasks_.push_back(h);
  run_q_.push(start, task_payload(h));
  ++live_;
  return tid;
}

void Engine::requeue(Task::Handle h) {
  run_q_.push(h.promise().clock, task_payload(h));
}

void Engine::schedule(Nanos t, std::function<void()> fn) {
  std::uint32_t idx;
  if (!cb_free_.empty()) {
    idx = cb_free_.back();
    cb_free_.pop_back();
    cb_pool_[idx] = std::move(fn);
  } else {
    idx = static_cast<std::uint32_t>(cb_pool_.size());
    cb_pool_.push_back(std::move(fn));
  }
  run_q_.push(t, (static_cast<std::uint64_t>(idx) << 1) | 1);
}

void Engine::run_callback(std::uint64_t payload) {
  const auto idx = static_cast<std::uint32_t>(payload >> 1);
  // Move out before invoking: the callback may schedule() and reuse the
  // slot.
  std::function<void()> fn = std::move(cb_pool_[idx]);
  cb_pool_[idx] = nullptr;
  cb_free_.push_back(idx);
  fn();
}

void Engine::park(std::uint64_t key, Task::Handle h,
                  std::function<bool(Nanos)> try_wake) {
  const Nanos at = h.promise().clock;
  park_filter_ |= filter_bit(key);
  parked_.get_or_create(key).push_back(Waiter{h, std::move(try_wake), at});
  if (obs_) obs_->on_park(h.promise().tid, key, at);
}

void Engine::notify(std::uint64_t key, Nanos visible, int writer_tid) {
  // Every store notifies its line, but almost all lines never have a waiter:
  // one branch against the presence filter skips the table probe entirely.
  if ((park_filter_ & filter_bit(key)) == 0) return;
  WaiterList* waiters = parked_.find(key);
  if (waiters == nullptr) return;
  for (std::size_t i = 0; i < waiters->size();) {
    if ((*waiters)[i].try_wake(visible)) {
      Task::Handle h = (*waiters)[i].h;
      if (obs_) {
        obs_->on_unpark(h.promise().tid, key, (*waiters)[i].parked_at,
                        h.promise().clock, writer_tid);
      }
      requeue(h);
      waiters->erase(i);  // ordered erase: wakeups stay FIFO within a key
    } else {
      ++i;
    }
  }
  // Reclaim the slot on wake-all so hot flag lines don't grow the table
  // monotonically (the free-listed pool reuses it on the next park).
  if (waiters->empty()) {
    parked_.erase(key);
    // The filter cannot forget single keys; re-arm it whenever the table
    // drains (frequent: every barrier release empties it).
    if (parked_.size() == 0) park_filter_ = 0;
  }
}

void Engine::release_sync() {
  // All live tasks arrived: align clocks to the maximum and release.
  Nanos tmax = 0;
  int last_tid = -1;  // the barrier's last arriver: everyone's predecessor
  for (Task::Handle w : sync_q_) {
    if (last_tid < 0 || w.promise().clock > tmax) {
      last_tid = w.promise().tid;
    }
    tmax = std::max(tmax, w.promise().clock);
  }
  // A release from finish() can come after the engine clock passed every
  // waiter (the finishing task ran ahead): release no earlier than now.
  tmax = std::max(tmax, global_time_);
  for (Task::Handle w : sync_q_) {
    auto& p = w.promise();
    if (obs_) obs_->on_sync_wait(p.tid, p.clock, tmax, last_tid);
    p.clock = tmax;
    requeue(w);
  }
  if (obs_) obs_->on_sync_release(tmax, static_cast<int>(sync_q_.size()));
  sync_q_.clear();
}

void Engine::sync_arrive(Task::Handle h) {
  sync_q_.push_back(h);
  if (static_cast<int>(sync_q_.size()) < live_) return;
  release_sync();
}

void Engine::finish(Task::Handle h) {
  --live_;
  if (h.promise().error) {
    running_ = false;
    std::rethrow_exception(h.promise().error);
  }
  if (obs_) obs_->on_finish(h.promise().tid, h.promise().clock);
  // Release a barrier that was waiting only on still-live tasks.
  if (!sync_q_.empty() && static_cast<int>(sync_q_.size()) >= live_) {
    release_sync();
  }
}

void Engine::run() { run_until(0); }

bool Engine::run_until(std::uint64_t step_limit) {
  CAPMEM_CHECK(!running_);
  running_ = true;
  while (!run_q_.empty()) {
    if (step_limit != 0 && steps_ >= step_limit) {
      running_ = false;
      return false;
    }
    const EventQueue::Entry e = run_q_.pop_min();
    CAPMEM_DCHECK(e.t + 1e-6 >= global_time_);
    global_time_ = std::max(global_time_, e.t);
    ++steps_;
    if (wd_armed_) watchdog_check();
    if ((e.payload & 1) == 0) {
      const auto h =
          Task::Handle::from_address(reinterpret_cast<void*>(e.payload));
      if (obs_) obs_->on_resume(h.promise().tid, e.t);
      h.resume();
      if (h.promise().done) finish(h);
    } else {
      run_callback(e.payload);
    }
  }
  running_ = false;
  if (live_ > 0) report_deadlock();
  return true;
}

state::EngineState Engine::export_state() const {
  state::EngineState s;
  s.global_time = global_time_;
  s.steps = steps_;
  s.queue_seq = run_q_.next_seq();
  s.live = live_;
  s.rng = rng_.state_words();
  s.tasks.reserve(tasks_.size());
  for (Task::Handle h : tasks_) {
    s.tasks.push_back(state::TaskState{
        h.promise().clock, static_cast<std::uint8_t>(h.promise().done)});
  }
  // Queue entries carry frame addresses / pool indices; translate the
  // former to tids so two processes at the same cursor export identically.
  std::unordered_map<const void*, int> tid_of;
  tid_of.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    tid_of[tasks_[i].address()] = static_cast<int>(i);
  }
  run_q_.for_each([&](const EventQueue::Entry& e) {
    state::QueueEntryState q;
    q.t = e.t;
    q.seq = e.seq;
    if ((e.payload & 1) == 0) {
      const auto it =
          tid_of.find(reinterpret_cast<const void*>(e.payload));
      CAPMEM_CHECK_MSG(it != tid_of.end(),
                       "run-queue task entry with unknown frame");
      q.is_callback = 0;
      q.id = it->second;
    } else {
      q.is_callback = 1;
      q.id = static_cast<std::int64_t>(e.payload >> 1);
    }
    s.queue.push_back(q);
  });
  std::sort(s.queue.begin(), s.queue.end(),
            [](const state::QueueEntryState& a,
               const state::QueueEntryState& b) {
              return a.t != b.t ? a.t < b.t : a.seq < b.seq;
            });
  parked_.for_each([&](std::uint64_t key, const WaiterList& ws) {
    for (const Waiter& w : ws) {
      s.parked.push_back(state::ParkedWaiterState{
          key, w.h.promise().tid, w.parked_at});
    }
  });
  // Waiters within one key stay in park (FIFO wake) order; keys sort.
  std::stable_sort(s.parked.begin(), s.parked.end(),
                   [](const state::ParkedWaiterState& a,
                      const state::ParkedWaiterState& b) {
                     return a.key < b.key;
                   });
  s.sync_q.reserve(sync_q_.size());
  for (Task::Handle h : sync_q_) s.sync_q.push_back(h.promise().tid);
  s.live_callbacks = cb_pool_.size() - cb_free_.size();
  return s;
}

void Engine::import_quiescent(const state::EngineState& s) {
  CAPMEM_CHECK_MSG(tasks_.empty() && run_q_.empty() && !running_,
                   "import_quiescent needs a fresh engine");
  CAPMEM_CHECK_MSG(s.queue.empty() && s.live == 0 && s.parked.empty() &&
                       s.sync_q.empty(),
                   "snapshot is not quiescent: live scheduler state cannot "
                   "be installed (restore by replaying to the cursor)");
  global_time_ = s.global_time;
  steps_ = s.steps;
  run_q_.set_next_seq(s.queue_seq);
  rng_.set_state_words(s.rng);
}

void Engine::watchdog_check() {
  if (wd_.max_steps != 0 && steps_ > wd_.max_steps) {
    std::ostringstream r;
    r << "step budget " << wd_.max_steps << " exceeded";
    raise_abort(AbortKind::kLivelock, r.str());
  }
  if (wd_.max_virtual_ns != 0 && global_time_ > wd_.max_virtual_ns) {
    std::ostringstream r;
    r << "virtual-time budget " << wd_.max_virtual_ns << " ns exceeded";
    raise_abort(AbortKind::kBudgetExceeded, r.str());
  }
  // Park-age scan is O(parked tasks); amortize it over 64 steps. The trip
  // point stays deterministic: virtual state is a pure function of the
  // schedule, and so is the step counter.
  if (wd_.max_park_age_ns != 0 && (steps_ & 63) == 0) {
    Nanos worst = 0;
    parked_.for_each([&](std::uint64_t, const WaiterList& ws) {
      for (const auto& w : ws) {
        worst = std::max(worst, global_time_ - w.parked_at);
      }
    });
    if (worst > wd_.max_park_age_ns) {
      std::ostringstream r;
      r << "park-age budget " << wd_.max_park_age_ns << " ns exceeded";
      raise_abort(AbortKind::kLivelock, r.str());
    }
  }
}

void Engine::raise_abort(AbortKind kind, const std::string& reason) {
  running_ = false;
  std::ostringstream os;
  os << "simulation " << to_string(kind) << " at t=" << global_time_
     << " ns";
  if (kind == AbortKind::kDeadlock) {
    os << ": " << live_ << " task(s) blocked;";
  } else {
    os << " after " << steps_ << " step(s): " << reason << ";";
  }
  int stuck_tid = -1;
  Nanos stuck_age = 0;
  std::size_t parked_count = 0;
  parked_.for_each([&](std::uint64_t key, const WaiterList& ws) {
    parked_count += ws.size();
    os << " line " << key << " <- {";
    for (const auto& w : ws) {
      const Nanos age = std::max<Nanos>(0, global_time_ - w.parked_at);
      if (stuck_tid < 0 || age > stuck_age) {
        stuck_tid = w.h.promise().tid;
        stuck_age = age;
      }
      os << " tid " << w.h.promise().tid << " (parked at t=" << w.parked_at
         << ", age=" << age << " ns)";
    }
    os << " }";
  });
  if (!sync_q_.empty()) {
    os << " barrier holds " << sync_q_.size() << " arrival(s) from {";
    for (Task::Handle w : sync_q_) os << " tid " << w.promise().tid;
    os << " }";
  }
  if (parked_count == 0 && sync_q_.empty() &&
      kind == AbortKind::kDeadlock) {
    os << " (unknown wait state)";
  }
  if (obs_ != nullptr) obs_->on_abort(kind, global_time_, stuck_tid);
  throw SimAbort(kind, os.str(), global_time_, steps_, stuck_tid,
                 stuck_age);
}

void Engine::report_deadlock() { raise_abort(AbortKind::kDeadlock, ""); }

}  // namespace capmem::sim
