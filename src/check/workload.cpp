#include "check/workload.hpp"

#include <algorithm>
#include <sstream>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "sim/machine.hpp"

namespace capmem::check {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kRead: return "R";
    case OpKind::kWrite: return "W";
    case OpKind::kNtWrite: return "NTW";
    case OpKind::kFetchAdd: return "FA";
    case OpKind::kFalseShare: return "FS";
    case OpKind::kStream: return "STRM";
    case OpKind::kFlush: return "FLUSH";
    case OpKind::kCompute: return "C";
  }
  return "?";
}

std::string WorkloadSpec::label() const {
  std::ostringstream os;
  os << sim::to_string(cluster) << '/' << sim::to_string(memory) << " t"
     << threads << " ops" << ops_per_thread;
  if (prefix >= 0) os << "[:" << prefix << ']';
  os << " seed" << seed;
  if (max_steps != 0) os << " steps<=" << max_steps;
  if (fault_severity != 0) os << " fault" << fault_severity;
  if (machine != "knl_38t" || protocol != sim::Protocol::kMesif) {
    os << ' ' << machine << '/' << sim::to_string(protocol);
  }
  return os.str();
}

std::vector<std::vector<Op>> generate_ops(const WorkloadSpec& spec) {
  std::vector<std::vector<Op>> all(static_cast<std::size_t>(spec.threads));
  for (int t = 0; t < spec.threads; ++t) {
    Rng rng(spec.seed * 1000003 + static_cast<std::uint64_t>(t));
    auto& ops = all[static_cast<std::size_t>(t)];
    ops.reserve(static_cast<std::size_t>(spec.ops_per_thread));
    for (int i = 0; i < spec.ops_per_thread; ++i) {
      Op op;
      const std::uint64_t roll = rng.next_below(100);
      const auto data_line = [&] {
        return static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(spec.data_lines)));
      };
      if (roll < 30) {
        op.kind = OpKind::kRead;
        op.arg = data_line();
      } else if (roll < 50) {
        op.kind = OpKind::kWrite;
        op.arg = data_line();
      } else if (roll < 57) {
        op.kind = OpKind::kNtWrite;
        op.arg = data_line();
      } else if (roll < 67) {
        op.kind = OpKind::kFetchAdd;
        op.arg = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(spec.counter_lines)));
        op.val = 1 + rng.next_below(7);
      } else if (roll < 80) {
        op.kind = OpKind::kFalseShare;
      } else if (roll < 86) {
        op.kind = OpKind::kStream;
      } else if (roll < 91) {
        op.kind = OpKind::kFlush;
        op.arg = data_line();
      } else {
        op.kind = OpKind::kCompute;
        op.ns = rng.uniform(1.0, 40.0);
      }
      ops.push_back(op);
    }
  }
  return all;
}

sim::MachineConfig workload_config(const WorkloadSpec& spec) {
  sim::MachineConfig cfg =
      sim::machine_preset(spec.machine, spec.cluster, spec.memory);
  cfg.protocol = spec.protocol;
  // Cache/hybrid runs shrink the memory-side tag array to a footprint the
  // fuzz working set actually exercises (same scaling as test_fuzz). Small
  // presets carry less memory than KNL: clamp so the scaled capacities stay
  // at least a MiB per kind.
  if (spec.memory != sim::MemoryMode::kFlat) {
    const std::uint64_t max_scale =
        std::min(cfg.dram_bytes, cfg.mcdram_bytes) / MiB(1);
    const std::uint64_t scale = std::min<std::uint64_t>(256, max_scale);
    if (scale > 1) cfg.scale_memory(scale);
  }
  cfg.seed = spec.seed;
  return cfg;
}

WorkloadRun::WorkloadRun(const WorkloadSpec& spec, Checker* checker,
                         obs::TraceSink* trace, obs::attr::Sink* attr,
                         obs::Registry* metrics)
    : spec_(spec), checker_(checker) {
  using namespace capmem::sim;
  CAPMEM_CHECK(spec_.threads >= 1 && spec_.data_lines >= 1 &&
               spec_.counter_lines >= 1);
  MachineConfig cfg = workload_config(spec_);
  cfg.watchdog.max_steps = spec_.max_steps;
  // cfg.fault borrows plan_: a member, so it outlives the machine (the
  // WorkloadRun is non-movable for exactly this reason).
  if (spec_.fault_severity != 0) {
    plan_ = fault::from_seed(spec_.seed, spec_.fault_severity);
    fault::apply(cfg, plan_);
  }
  CAPMEM_CHECK(spec_.threads <= cfg.hw_threads());
  cfg.check = checker_;
  cfg.trace = trace;
  cfg.attr = attr;
  cfg.metrics = metrics;
  if (checker_ != nullptr) checker_->set_trace(trace);

  ops_ = generate_ops(spec_);
  nops_ = spec_.prefix < 0 ? spec_.ops_per_thread
                           : std::min(spec_.prefix, spec_.ops_per_thread);

  out_.expected_data.assign(static_cast<std::size_t>(spec_.data_lines), 0);
  out_.expected_counter.assign(static_cast<std::size_t>(spec_.counter_lines),
                               0);
  out_.expected_slot.assign(static_cast<std::size_t>(spec_.threads), 0);

  machine_ = std::make_unique<Machine>(cfg);
  Machine& m = *machine_;
  data_ = m.alloc(
      "data", static_cast<std::uint64_t>(spec_.data_lines) * kLineBytes, {},
      true);
  out_.data_base_line = line_of(data_);
  counters_ = m.alloc(
      "counters",
      static_cast<std::uint64_t>(spec_.counter_lines) * kLineBytes, {},
      true);
  // One 64-bit slot per thread, eight to a line: false sharing by layout.
  slots_ = m.alloc("slots", static_cast<std::uint64_t>(spec_.threads) * 8,
                   {}, true);
  priv_.resize(static_cast<std::size_t>(spec_.threads));
  for (int t = 0; t < spec_.threads; ++t) {
    priv_[static_cast<std::size_t>(t)] =
        m.alloc("priv" + std::to_string(t), KiB(4), {}, false);
  }

  const auto slot_list = make_schedule(cfg, spec_.sched, spec_.threads);
  // Write counts per (thread, data line), feeding encode_value. Indexed
  // [t][line]; only thread t touches row t, and the shadow vectors are
  // updated in coroutine execution order == store commit order.
  wcount_.assign(static_cast<std::size_t>(spec_.threads),
                 std::vector<std::uint64_t>(
                     static_cast<std::size_t>(spec_.data_lines), 0));
  fs_count_.assign(static_cast<std::size_t>(spec_.threads), 0);

  for (int t = 0; t < spec_.threads; ++t) {
    m.add_thread(slot_list[static_cast<std::size_t>(t)],
                 [this, t](Ctx& ctx) -> Task {
      const auto& my_ops = ops_[static_cast<std::size_t>(t)];
      for (int i = 0; i < nops_; ++i) {
        const Op op = my_ops[static_cast<std::size_t>(i)];
        const std::size_t li = static_cast<std::size_t>(op.arg);
        switch (op.kind) {
          case OpKind::kRead:
            co_await ctx.read_u64(data_ + li * kLineBytes);
            break;
          case OpKind::kWrite:
          case OpKind::kNtWrite: {
            const std::uint64_t v = encode_value(
                t, ++wcount_[static_cast<std::size_t>(t)][li]);
            out_.expected_data[li] = v;
            AccessOpts o;
            o.nt = op.kind == OpKind::kNtWrite;
            co_await ctx.write_u64(data_ + li * kLineBytes, v, o);
            break;
          }
          case OpKind::kFetchAdd:
            out_.expected_counter[li] += op.val;
            co_await ctx.fetch_add_u64(counters_ + li * kLineBytes, op.val);
            break;
          case OpKind::kFalseShare: {
            const std::uint64_t v =
                ++fs_count_[static_cast<std::size_t>(t)];
            out_.expected_slot[static_cast<std::size_t>(t)] = v;
            co_await ctx.write_u64(
                slots_ + static_cast<std::uint64_t>(t) * 8, v);
            break;
          }
          case OpKind::kStream:
            co_await ctx.read_buf(priv_[static_cast<std::size_t>(t)],
                                  KiB(4));
            break;
          case OpKind::kFlush:
            ctx.machine().memsys().flush_line(
                line_of(data_ + li * kLineBytes));
            break;
          case OpKind::kCompute:
            co_await ctx.compute(op.ns);
            break;
        }
      }
    });
  }
}

WorkloadRun::~WorkloadRun() = default;

std::uint64_t WorkloadRun::steps() const { return machine_->engine().steps(); }

bool WorkloadRun::run_until(std::uint64_t step_limit) {
  using namespace capmem::sim;
  if (finished_) return true;
  try {
    if (!machine_->run_until(step_limit)) return false;
    machine_->memsys().directory().check_all();
    if (checker_ != nullptr) checker_->final_sweep(machine_->memsys());
    out_.ran = true;
  } catch (const SimAbort& e) {
    out_.aborted = true;
    out_.error = e.what();
    errored_ = true;
  } catch (const CheckError& e) {
    out_.error = e.what();
    errored_ = true;
  }
  finished_ = true;
  return true;
}

WorkloadResult WorkloadRun::take_result() {
  using namespace capmem::sim;
  CAPMEM_CHECK_MSG(finished_ && !collected_,
                   "take_result needs a finished, uncollected run");
  collected_ = true;
  if (!out_.ran) return std::move(out_);
  Machine& m = *machine_;
  out_.elapsed = m.elapsed();
  out_.dir_lines = m.memsys().directory().tracked_lines();
  for (int i = 0; i < spec_.data_lines; ++i) {
    out_.final_data.push_back(m.space().load<std::uint64_t>(
        data_ + static_cast<std::uint64_t>(i) * kLineBytes));
  }
  for (int i = 0; i < spec_.counter_lines; ++i) {
    out_.final_counter.push_back(m.space().load<std::uint64_t>(
        counters_ + static_cast<std::uint64_t>(i) * kLineBytes));
  }
  for (int t = 0; t < spec_.threads; ++t) {
    out_.final_slot.push_back(m.space().load<std::uint64_t>(
        slots_ + static_cast<std::uint64_t>(t) * 8));
  }
  return std::move(out_);
}

WorkloadResult run_workload(const WorkloadSpec& spec, Checker* checker,
                            obs::TraceSink* trace, obs::attr::Sink* attr,
                            obs::Registry* metrics) {
  WorkloadRun run(spec, checker, trace, attr, metrics);
  run.run_until(0);
  return run.take_result();
}

}  // namespace capmem::check
