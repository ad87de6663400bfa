#include "check/differ.hpp"

#include <algorithm>
#include <sstream>

#include "sim/machine.hpp"
#include "snap/snapshot.hpp"

namespace capmem::check {

namespace {

void mismatch(std::ostringstream& os, const char* what, int index,
              std::uint64_t expect, std::uint64_t got) {
  os << "  diff: " << what << '[' << index << "] expected " << expect
     << ", simulator has " << got << '\n';
}

}  // namespace

DiffOutcome run_diff(const WorkloadSpec& spec, obs::TraceSink* trace,
                     obs::attr::Sink* attr, const DiffOptions& opts) {
  DiffOutcome out;
  out.spec = spec;
  Checker checker(workload_config(spec));
  WorkloadRun run(spec, &checker, trace, attr);
  if (opts.snapshot_at_step != 0 && !run.run_until(opts.snapshot_at_step)) {
    // Paused mid-schedule: exercise the full snapshot path — capture,
    // encode, decode, digest-verify against the live machine — then
    // resume. Transparent by construction: capture and digest only read,
    // and the resume continues the exact event queue the pause interrupted.
    const std::vector<std::uint8_t> bytes =
        snap::encode(snap::capture(run.machine()), run.machine().config());
    const sim::state::MachineState back =
        snap::decode(bytes, run.machine().config());
    CAPMEM_CHECK_MSG(snap::digest(back) == snap::digest(run.machine()),
                     "snapshot round-trip changed the machine state digest");
    out.snapshot_id = snap::snapshot_id(bytes);
  }
  run.run_until(0);
  const WorkloadResult r = run.take_result();
  out.violations = checker.violation_count();
  out.elapsed = r.elapsed;

  std::ostringstream os;
  out.aborted = r.aborted;
  if (!r.ran) {
    os << "  simulator threw: " << r.error << '\n';
  } else {
    for (int i = 0; i < spec.data_lines; ++i) {
      const std::size_t li = static_cast<std::size_t>(i);
      if (r.final_data[li] != r.expected_data[li])
        mismatch(os, "data", i, r.expected_data[li], r.final_data[li]);
      // The oracle saw only the access stream (no values); its last-writer
      // prediction must reproduce the shadow's final value. encode_value is
      // never 0, so shadow 0 means the line was never written.
      const Oracle::WriterInfo* w = checker.oracle().writer(
          r.data_base_line + static_cast<sim::Line>(i));
      if (r.expected_data[li] == 0) {
        if (w != nullptr)
          os << "  diff: oracle saw " << w->total_writes
             << " write(s) to untouched data[" << i << "]\n";
      } else if (w == nullptr) {
        os << "  diff: oracle saw no writes to data[" << i << "]\n";
      } else if (encode_value(w->last_tid, w->last_count) !=
                 r.expected_data[li]) {
        mismatch(os, "oracle-predicted data", i, r.expected_data[li],
                 encode_value(w->last_tid, w->last_count));
      }
    }
    for (int i = 0; i < spec.counter_lines; ++i) {
      const std::size_t li = static_cast<std::size_t>(i);
      if (r.final_counter[li] != r.expected_counter[li])
        mismatch(os, "counter", i, r.expected_counter[li],
                 r.final_counter[li]);
    }
    for (int t = 0; t < spec.threads; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      if (r.final_slot[ti] != r.expected_slot[ti])
        mismatch(os, "slot", t, r.expected_slot[ti], r.final_slot[ti]);
    }
  }
  if (!checker.ok()) os << checker.report();

  out.report = os.str();
  out.ok = out.report.empty();
  return out;
}

WorkloadSpec minimize(const WorkloadSpec& failing) {
  WorkloadSpec best = failing;
  // Shortest failing per-thread prefix. Divergence need not be monotone in
  // the prefix length, but bisection still lands on *a* failing prefix.
  int lo = 1;
  int hi = failing.prefix < 0 ? failing.ops_per_thread : failing.prefix;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    WorkloadSpec probe = best;
    probe.prefix = mid;
    if (!run_diff(probe).ok) {
      hi = mid;
      best = probe;
    } else {
      lo = mid + 1;
    }
  }
  best.prefix = hi;
  if (run_diff(best).ok) {
    // The bisection's last probe passed at hi; fall back to the original.
    best = failing;
  }
  // Fewer threads, while the failure persists.
  while (best.threads > 1) {
    WorkloadSpec probe = best;
    probe.threads = std::max(1, best.threads / 2);
    if (!run_diff(probe).ok) {
      best = probe;
    } else {
      break;
    }
  }
  return best;
}

DivergencePoint locate_divergence(const WorkloadSpec& failing) {
  DivergencePoint out;
  // "Bad by step k": a checker violation was recorded or the simulator
  // threw within the first k steps. Monotone in k.
  const auto bad_by = [&failing](std::uint64_t k) {
    Checker checker(workload_config(failing));
    WorkloadRun run(failing, &checker);
    run.run_until(k);
    return checker.violation_count() > 0 || run.errored();
  };
  {
    Checker checker(workload_config(failing));
    WorkloadRun full(failing, &checker);
    full.run_until(0);
    out.total_steps = full.steps();
    if (checker.violation_count() == 0 && !full.errored()) {
      // Divergence (if any) is only visible in final memory; there is no
      // intermediate step to bisect to.
      return out;
    }
  }
  std::uint64_t lo = 1;
  std::uint64_t hi = out.total_steps;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bad_by(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  out.found = true;
  out.first_bad_step = hi;
  // Last-good checkpoint: replay a fresh machine to one step earlier and
  // name its state. Deterministic replay makes this id reproducible from
  // the spec alone — a repro consumer re-derives the same bytes. (run_until
  // treats 0 as "unlimited", so a first-bad-step of 1 captures the
  // never-started machine instead of calling run_until at all.)
  Checker checker(workload_config(failing));
  WorkloadRun run(failing, &checker);
  if (hi >= 2) run.run_until(hi - 1);
  out.last_good_digest = snap::digest(run.machine());
  out.last_good_snapshot = snap::snapshot_id(
      snap::encode(snap::capture(run.machine()), run.machine().config()));
  return out;
}

std::string repro_text(const DiffOutcome& outcome,
                       const DivergencePoint* where) {
  const WorkloadSpec& s = outcome.spec;
  std::ostringstream os;
  os << "capmem fuzz-diff divergence repro\n"
     << "spec: " << s.label() << '\n'
     << "  threads=" << s.threads << " data_lines=" << s.data_lines
     << " counter_lines=" << s.counter_lines << " ops_per_thread="
     << s.ops_per_thread << " prefix=" << s.prefix << " seed=" << s.seed
     << '\n'
     << "  cluster=" << sim::to_string(s.cluster) << " memory="
     << sim::to_string(s.memory) << " sched=" << sim::to_string(s.sched)
     << '\n';
  if (s.machine != "knl_38t" || s.protocol != sim::Protocol::kMesif) {
    os << "  machine=" << s.machine << " protocol="
       << sim::to_string(s.protocol) << '\n';
  }
  if (s.max_steps != 0 || s.fault_severity != 0) {
    os << "  max_steps=" << s.max_steps
       << " fault_severity=" << s.fault_severity << '\n';
  }
  os << "violations: " << outcome.violations << '\n';
  if (!outcome.snapshot_id.empty()) {
    os << "mid-run snapshot: " << outcome.snapshot_id << '\n';
  }
  if (where != nullptr) {
    if (where->found) {
      os << "first bad engine step: " << where->first_bad_step << " of "
         << where->total_steps << '\n'
         << "last-good snapshot: " << where->last_good_snapshot
         << " (replay the spec to step " << (where->first_bad_step - 1)
         << "; state digest " << where->last_good_digest << ")\n";
    } else {
      os << "divergence visible only in final memory ("
         << where->total_steps << " steps; no checker-visible bad step)\n";
    }
  }
  os << "report:\n"
     << outcome.report << "schedule (per thread, executed prefix):\n";
  const auto ops = generate_ops(s);
  const int nops = s.prefix < 0 ? s.ops_per_thread
                                : std::min(s.prefix, s.ops_per_thread);
  int emitted = 0;
  for (int t = 0; t < s.threads && emitted < 4000; ++t) {
    os << "  t" << t << ':';
    for (int i = 0; i < nops && emitted < 4000; ++i, ++emitted) {
      const Op& op = ops[static_cast<std::size_t>(t)]
                        [static_cast<std::size_t>(i)];
      os << ' ' << to_string(op.kind);
      switch (op.kind) {
        case OpKind::kRead:
        case OpKind::kWrite:
        case OpKind::kNtWrite:
        case OpKind::kFlush: os << 'd' << op.arg; break;
        case OpKind::kFetchAdd: os << 'c' << op.arg << '+' << op.val; break;
        case OpKind::kCompute:
          os << static_cast<int>(op.ns) << "ns";
          break;
        default: break;
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace capmem::check
