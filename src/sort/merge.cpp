#include "sort/merge.hpp"

#include <cstring>

#include "common/check.hpp"

namespace capmem::sort {

using sim::AccessOpts;
using sim::AccessType;
using sim::Task;

namespace {
// Lines processed per engine step: small enough that concurrent merging
// threads interleave their channel reservations in virtual-time order.
constexpr int kChunk = 4;

AccessOpts read_opts() {
  AccessOpts o;
  o.streaming = true;
  o.copy_pair = true;  // merge streams feed a paired store
  return o;
}
AccessOpts write_opts(bool nt) {
  AccessOpts o;
  o.streaming = true;
  o.nt = nt;
  return o;
}
}  // namespace

LineRun LineRun::resolve(sim::Machine& m, sim::Addr base,
                         std::uint64_t lines) {
  LineRun r;
  r.base = base;
  r.place = m.allocation_of(base).place;
  r.bytes = m.space().data(base, lines * kLineBytes);
  return r;
}

void MergeOp::resolve() {
  sim::Machine& m = ctx->machine();
  if (space_epoch_ == m.space_epoch()) return;
  r1_ = LineRun::resolve(m, in1, n1);
  r2_ = LineRun::resolve(m, in2, n2);
  rout_ = LineRun::resolve(m, out, n1 + n2);
  space_epoch_ = m.space_epoch();
}

void MergeOp::step(Task::Handle h) {
  resolve();
  auto& p = h.promise();
  auto& mem = ctx->machine().memsys();
  auto& engine = ctx->machine().engine();
  const int tid = ctx->tid();
  const int core = ctx->core();
  const AccessOpts ro = read_opts();
  const AccessOpts wo = write_opts(nt);

  // Reads line i of `r` with timing into `v`.
  auto timed_read = [&](const LineRun& r, std::uint64_t i, Vec16& v) {
    p.clock = mem.access(tid, core, sim::line_of(r.line_addr(i)), r.place,
                         AccessType::kRead, ro, p.clock)
                  .finish;
    std::memcpy(v.data(), r.line_bytes(i), kLineBytes);
  };
  // Writes `v` as output line iout_ with timing.
  auto timed_write = [&](const Vec16& v) {
    std::memcpy(rout_.line_bytes(iout_), v.data(), kLineBytes);
    const sim::Line line = sim::line_of(rout_.line_addr(iout_));
    p.clock = mem.access(tid, core, line, rout_.place, AccessType::kWrite,
                         wo, p.clock)
                  .finish;
    engine.notify(line, p.clock);
    ++iout_;
  };
  auto head_of = [](const LineRun& r, std::uint64_t i) {
    std::int32_t v;
    std::memcpy(&v, r.line_bytes(i), sizeof v);
    return v;
  };

  for (int budget = 0; budget < kChunk; ++budget) {
    if (!primed_) {
      Vec16 a, b;
      timed_read(r1_, 0, a);
      timed_read(r2_, 0, b);
      i1_ = 1;
      i2_ = 1;
      merge16(a, b);
      p.clock += merge16_ns();
      timed_write(a);
      cur_ = b;
      primed_ = true;
      continue;
    }
    if (i1_ >= n1 && i2_ >= n2) {
      // Drain: the pending high vector is the final output line.
      timed_write(cur_);
      CAPMEM_DCHECK(iout_ == n1 + n2);
      p.engine->requeue(h);
      return;
    }
    // Pull from the run whose next head is smaller (merge-path rule).
    Vec16 next;
    if (i1_ < n1 && (i2_ >= n2 || head_of(r1_, i1_) <= head_of(r2_, i2_))) {
      timed_read(r1_, i1_++, next);
    } else {
      timed_read(r2_, i2_++, next);
    }
    merge16(cur_, next);
    p.clock += merge16_ns();
    timed_write(cur_);
    cur_ = next;
  }
  MergeOp* self = this;
  p.engine->schedule(p.clock, [self, h] { self->step(h); });
}

void MergeOp::await_suspend(Task::Handle h) {
  CAPMEM_CHECK(n1 >= 1 && n2 >= 1);
  step(h);
}

void SortLinesOp::step(Task::Handle h) {
  auto& machine = ctx->machine();
  if (space_epoch_ != machine.space_epoch()) {
    run_ = LineRun::resolve(machine, buf, lines);
    space_epoch_ = machine.space_epoch();
  }
  auto& p = h.promise();
  auto& mem = machine.memsys();
  const AccessOpts ro = read_opts();
  AccessOpts wo;
  wo.streaming = true;

  for (int budget = 0; budget < kChunk * 2; ++budget) {
    if (done_ >= lines) {
      p.engine->requeue(h);
      return;
    }
    const sim::Line line = sim::line_of(run_.line_addr(done_));
    std::byte* const bytes = run_.line_bytes(done_);
    p.clock = mem.access(ctx->tid(), ctx->core(), line, run_.place,
                         AccessType::kRead, ro, p.clock)
                  .finish;
    Vec16 v;
    std::memcpy(v.data(), bytes, kLineBytes);
    sort16(v);
    p.clock += sort16_ns();
    std::memcpy(bytes, v.data(), kLineBytes);
    p.clock = mem.access(ctx->tid(), ctx->core(), line, run_.place,
                         AccessType::kWrite, wo, p.clock)
                  .finish;
    machine.engine().notify(line, p.clock);
    ++done_;
  }
  SortLinesOp* self = this;
  p.engine->schedule(p.clock, [self, h] { self->step(h); });
}

void SortLinesOp::await_suspend(Task::Handle h) { step(h); }

}  // namespace capmem::sort
