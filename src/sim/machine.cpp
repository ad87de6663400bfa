#include "sim/machine.hpp"

#include <algorithm>
#include <cstring>

namespace capmem::sim {

// ---------------------------------------------------------------- awaiters

namespace detail {

void LineOp::await_suspend(Task::Handle h) {
  auto& p = h.promise();
  const Allocation& al = ctx->allocation_of(addr);
  const Nanos from = p.clock;
  out = m->mem_.access(ctx->tid(), ctx->core(), line_of(addr), al.place,
                       type, opts, p.clock);
  p.clock = out.finish;
  if (Observer* o = m->obs_.get()) {
    o->on_charge(ctx->tid(), attr_cat(out.level), from, p.clock);
  }
  if (is_u64) {
    if (is_rmw) {
      loaded = m->space().load<std::uint64_t>(addr);
      m->space().store<std::uint64_t>(addr, loaded + store_value);
    } else if (type == AccessType::kRead) {
      loaded = m->space().load<std::uint64_t>(addr);
    } else {
      m->space().store<std::uint64_t>(addr, store_value);
    }
  }
  if (type == AccessType::kWrite) {
    m->engine_.notify(line_of(addr), out.finish, ctx->tid());
  }
  p.engine->requeue(h);
}

void RangeOp::resolve_allocations() {
  // Same lookup order as the per-line kernels below (sources first).
  if (kind == Kind::kCopy || kind == Kind::kTriad)
    alloc_b = &ctx->allocation_of(b);
  if (kind == Kind::kTriad) alloc_c = &ctx->allocation_of(c);
  alloc_a = &ctx->allocation_of(a);
  space_epoch = m->space_epoch_;
}

void RangeOp::step(Task::Handle h) {
  RangeOp& op = *this;
  auto& p = h.promise();
  Machine& m = *op.m;
  if (op.space_epoch != m.space_epoch_) op.resolve_allocations();
  const int tid = op.ctx->tid();
  const int core = op.ctx->core();
  Observer* const observer = m.obs_.get();

  // One timed line access: advance the task clock and, with an observer
  // attached, charge the interval to the serving level's category.
  const auto timed = [&](Addr a, const Placement& place, AccessType t,
                         const AccessOpts& ao) {
    const Nanos from = p.clock;
    const AccessResult r =
        m.mem_.access(tid, core, line_of(a), place, t, ao, p.clock);
    p.clock = r.finish;
    if (observer != nullptr) {
      observer->on_charge(tid, attr_cat(r.level), from, p.clock);
    }
  };

  AccessOpts read_opts;
  read_opts.vector = op.opts.vector;
  read_opts.streaming = true;
  AccessOpts write_opts = read_opts;
  write_opts.nt = op.opts.nt;
  // Copy/triad stores are part of a mixed read+write stream; pure write
  // streams pay the memory write-turnaround occupancy.
  write_opts.copy_pair = op.kind == RangeOp::Kind::kCopy ||
                         op.kind == RangeOp::Kind::kTriad;

  const std::uint64_t chunk =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(op.opts.chunk_lines),
                              op.total_lines - op.done_lines);
  for (std::uint64_t i = 0; i < chunk; ++i) {
    const std::uint64_t off = (op.done_lines + i) * kLineBytes;
    switch (op.kind) {
      case RangeOp::Kind::kRead: {
        timed(op.a + off, op.alloc_a->place, AccessType::kRead, read_opts);
        break;
      }
      case RangeOp::Kind::kWrite: {
        timed(op.a + off, op.alloc_a->place, AccessType::kWrite, write_opts);
        m.engine_.notify(line_of(op.a + off), p.clock, tid);
        break;
      }
      case RangeOp::Kind::kCopy: {
        const Allocation& src = *op.alloc_b;
        AccessOpts ro = read_opts;
        ro.copy_pair = true;
        timed(op.b + off, src.place, AccessType::kRead, ro);
        const Allocation& dst = *op.alloc_a;
        timed(op.a + off, dst.place, AccessType::kWrite, write_opts);
        if (op.move_data && src.has_data && dst.has_data) {
          const std::uint64_t n = std::min<std::uint64_t>(
              kLineBytes, op.bytes - (op.done_lines + i) * kLineBytes);
          std::memcpy(m.space().data(op.a + off, n),
                      m.space().data(op.b + off, n), n);
        }
        m.engine_.notify(line_of(op.a + off), p.clock, tid);
        break;
      }
      case RangeOp::Kind::kTriad: {
        AccessOpts ro = read_opts;
        ro.copy_pair = true;
        timed(op.b + off, op.alloc_b->place, AccessType::kRead, ro);
        timed(op.c + off, op.alloc_c->place, AccessType::kRead, ro);
        timed(op.a + off, op.alloc_a->place, AccessType::kWrite, write_opts);
        m.engine_.notify(line_of(op.a + off), p.clock, tid);
        break;
      }
    }
  }
  op.done_lines += chunk;
}

namespace {

void range_pump(RangeOp* op, Task::Handle h) {
  op->step(h);
  if (op->done_lines >= op->total_lines) {
    h.promise().engine->requeue(h);
    return;
  }
  h.promise().engine->schedule(h.promise().clock,
                               [op, h] { range_pump(op, h); });
}

}  // namespace

bool RangeOp::await_suspend(Task::Handle h) {
  step(h);
  if (done_lines >= total_lines) {
    // Completed within the first chunk: resume immediately, but still go
    // through the scheduler so virtual-time ordering is preserved.
    h.promise().engine->requeue(h);
    return true;
  }
  RangeOp* self = this;  // awaiter frame is stable while suspended
  h.promise().engine->schedule(h.promise().clock,
                               [self, h] { range_pump(self, h); });
  return true;
}

bool WaitU64::probe(Task::Handle h, Nanos at) {
  AccessOpts o;
  o.polling = true;
  const Allocation& al = ctx->allocation_of(addr);
  const Nanos parked_from = h.promise().clock;
  const AccessResult r = m->mem_.access(ctx->tid(), ctx->core(),
                                        line_of(addr), al.place,
                                        AccessType::kRead, o, at);
  h.promise().clock = r.finish;
  if (Observer* observer = m->obs_.get()) {
    // The interval up to the wake probe is time parked on the line; the
    // probe itself is a polling read charged at its serving level.
    observer->on_charge(ctx->tid(), obs::attr::TimeCat::kParkWait,
                        parked_from, at);
    observer->on_charge(ctx->tid(), attr_cat(r.level), at, r.finish);
  }
  seen = m->space().load<std::uint64_t>(addr);
  return matches(seen);
}

void WaitU64::await_suspend(Task::Handle h) {
  if (probe(h, h.promise().clock)) {
    h.promise().engine->requeue(h);
    return;
  }
  WaitU64* self = this;
  m->engine_.park(line_of(addr), h, [self, h](Nanos visible) {
    return self->probe(h, std::max(h.promise().clock, visible));
  });
}

}  // namespace detail

// --------------------------------------------------------------------- Ctx

int Ctx::tile() const { return m_->topology().tile_of_core(slot_.core); }

int Ctx::domain() const {
  return m_->topology().domain_of_tile(tile(), m_->config().cluster);
}

Nanos Ctx::now() const {
  return m_->engine_.task_handle(tid_).promise().clock;
}

const Allocation& Ctx::allocation_of(Addr a) {
  if (alloc_memo_ != nullptr && alloc_memo_->contains(a)) return *alloc_memo_;
  alloc_memo_ = &m_->space_.find(a);
  return *alloc_memo_;
}

AdvanceTo Ctx::until_tsc(std::uint64_t ticks) const {
  const double res = m_->config().tsc_resolution_ns;
  return AdvanceTo{static_cast<double>(ticks) * res -
                   m_->tsc_skew(slot_.core)};
}

std::uint64_t Ctx::rdtsc() const {
  const double t = now() + m_->tsc_skew(slot_.core);
  const double res = m_->config().tsc_resolution_ns;
  return static_cast<std::uint64_t>(t / res);
}

detail::LineOp Ctx::touch(Addr a, AccessType t, AccessOpts o) {
  return detail::LineOp{m_, this, a, t, o, 0, false, false, {}, 0};
}

detail::ReadU64 Ctx::read_u64(Addr a, AccessOpts o) {
  return detail::ReadU64{detail::LineOp{m_, this, a, AccessType::kRead, o, 0,
                                        true, false, {}, 0}};
}

detail::LineOp Ctx::write_u64(Addr a, std::uint64_t v, AccessOpts o) {
  return detail::LineOp{m_, this, a, AccessType::kWrite,
                        o,  v,    true, false, {}, 0};
}

detail::ReadU64 Ctx::fetch_add_u64(Addr a, std::uint64_t delta,
                                   AccessOpts o) {
  return detail::ReadU64{detail::LineOp{m_, this, a, AccessType::kWrite, o,
                                        delta, true, true, {}, 0}};
}

detail::WaitU64 Ctx::wait_eq(Addr a, std::uint64_t v) {
  return detail::WaitU64{m_, this, a, v, false, 0};
}

detail::WaitU64 Ctx::wait_ne(Addr a, std::uint64_t v) {
  return detail::WaitU64{m_, this, a, v, true, 0};
}

detail::RangeOp Ctx::read_buf(Addr src, std::uint64_t bytes, BufOpts o) {
  detail::RangeOp op;
  op.m = m_;
  op.ctx = this;
  op.kind = detail::RangeOp::Kind::kRead;
  op.a = src;
  op.bytes = bytes;
  op.opts = o;
  return op;
}

detail::RangeOp Ctx::write_buf(Addr dst, std::uint64_t bytes, BufOpts o) {
  detail::RangeOp op;
  op.m = m_;
  op.ctx = this;
  op.kind = detail::RangeOp::Kind::kWrite;
  op.a = dst;
  op.bytes = bytes;
  op.opts = o;
  return op;
}

detail::RangeOp Ctx::copy(Addr dst, Addr src, std::uint64_t bytes,
                          BufOpts o) {
  detail::RangeOp op;
  op.m = m_;
  op.ctx = this;
  op.kind = detail::RangeOp::Kind::kCopy;
  op.a = dst;
  op.b = src;
  op.bytes = bytes;
  op.opts = o;
  op.move_data = true;
  return op;
}

detail::RangeOp Ctx::triad(Addr dst, Addr src1, Addr src2,
                           std::uint64_t bytes, BufOpts o) {
  detail::RangeOp op;
  op.m = m_;
  op.ctx = this;
  op.kind = detail::RangeOp::Kind::kTriad;
  op.a = dst;
  op.b = src1;
  op.c = src2;
  op.bytes = bytes;
  op.opts = o;
  return op;
}

std::uint64_t Ctx::peek_u64(Addr a) const {
  return m_->space_.load<std::uint64_t>(a);
}

void Ctx::poke_u64(Addr a, std::uint64_t v) {
  m_->space_.store<std::uint64_t>(a, v);
}

// ----------------------------------------------------------------- Machine

Machine::Machine(MachineConfig cfg)
    : cfg_(std::move(cfg)),
      topo_(cfg_),
      obs_(Fanout::make(cfg_, topo_)),
      engine_(cfg_.seed),
      mem_(cfg_, topo_, engine_.rng(), obs_.get()) {
  cfg_.validate();
  engine_.set_observer(obs_.get());
  engine_.set_watchdog(cfg_.watchdog);
  Rng skew_rng(cfg_.seed ^ 0x75c5u);
  tsc_skew_.resize(static_cast<std::size_t>(cfg_.cores()));
  for (auto& s : tsc_skew_) {
    s = skew_rng.uniform(-cfg_.tsc_skew_ns, cfg_.tsc_skew_ns);
  }
}

Addr Machine::alloc(std::string name, std::uint64_t bytes, Placement place,
                    bool with_data) {
  if (cfg_.memory == MemoryMode::kCache) {
    CAPMEM_CHECK_MSG(place.kind == MemKind::kDDR,
                     "cache mode exposes no MCDRAM address range (alloc '"
                         << name << "')");
  }
  invalidate_alloc_memos();
  return space_.alloc(std::move(name), bytes, place, with_data);
}

void Machine::free(Addr base) {
  invalidate_alloc_memos();
  space_.free(base);
}

void Machine::invalidate_alloc_memos() {
  last_alloc_ = nullptr;
  ++space_epoch_;
  for (Ctx& c : ctxs_) c.alloc_memo_ = nullptr;
}

int Machine::add_thread(CpuSlot slot, Program program) {
  CAPMEM_CHECK(!ran_);
  CAPMEM_CHECK(slot.core >= 0 && slot.core < cfg_.cores());
  CAPMEM_CHECK(slot.smt >= 0 && slot.smt < cfg_.threads_per_core);
  ctxs_.emplace_back();
  Ctx& ctx = ctxs_.back();
  ctx.m_ = this;
  ctx.slot_ = slot;
  programs_.push_back(std::move(program));
  return static_cast<int>(ctxs_.size()) - 1;
}

void Machine::run() {
  CAPMEM_CHECK_MSG(!ran_, "Machine::run is one-shot; build a new Machine");
  run_until(0);
}

bool Machine::run_until(std::uint64_t step_limit) {
  if (finished_) return true;
  if (!ran_) {
    ran_ = true;
    for (std::size_t i = 0; i < programs_.size(); ++i) {
      Ctx& ctx = ctxs_[i];
      Task t = programs_[i](ctx);
      // Tasks start at the engine's current time, not 0: on a machine
      // warmed from a snapshot the clock already advanced, and new
      // programs must join the schedule *after* the captured prefix.
      const int tid = engine_.spawn(std::move(t), engine_.now());
      ctx.tid_ = tid;
      if (obs_) {
        obs_->on_spawn(tid, topo_.tile_of_core(ctx.slot_.core),
                       engine_.now());
      }
    }
  }
  if (!engine_.run_until(step_limit)) return false;
  finished_ = true;
  if (obs_) obs_->finish_run(engine_, mem_);
  return true;
}

state::MachineState Machine::export_state(bool with_cache_planes) const {
  state::MachineState s;
  s.engine = engine_.export_state();
  s.mem = mem_.export_state(with_cache_planes);
  s.space = space_.export_state();
  s.quiescent = (s.engine.live == 0 && s.engine.queue.empty() &&
                 s.engine.parked.empty() && s.engine.sync_q.empty())
                    ? 1
                    : 0;
  return s;
}

void Machine::install_state(const state::MachineState& s) {
  CAPMEM_CHECK_MSG(!ran_ && programs_.empty(),
                   "install_state requires a fresh machine (no registered "
                   "threads, never run)");
  CAPMEM_CHECK_MSG(
      s.quiescent != 0,
      "only quiescent snapshots install directly (coroutine frames cannot "
      "be deserialized); restore mid-run snapshots by replay-to-cursor");
  engine_.import_quiescent(s.engine);
  mem_.import_state(s.mem);
  space_.import_state(s.space);
  invalidate_alloc_memos();
}

void Machine::flush_buffer(Addr base, std::uint64_t bytes,
                           bool drop_mcdram_cache) {
  const Line first = line_of(base);
  const Line last = line_of(base + bytes - 1);
  for (Line l = first; l <= last; ++l) mem_.flush_line(l, drop_mcdram_cache);
}

const Allocation& Machine::allocation_of(Addr a) {
  if (last_alloc_ != nullptr && last_alloc_->contains(a)) return *last_alloc_;
  last_alloc_ = &space_.find(a);
  return *last_alloc_;
}

}  // namespace capmem::sim
