// Differential fuzzing harness: randomized workloads over every
// cluster x memory configuration, each schedule cross-checked by the
// capmem::check layer (SC oracle, protocol invariant sweeps, inline
// shadow). --machine / --protocol run the same sweep on any machine-factory
// preset and coherence protocol (defaults: knl_38t, MESIF).
//
// One pass runs --seeds schedules per configuration (15 configurations:
// 5 cluster modes x 3 memory modes), fanned out over --jobs host workers
// with exec-derived per-cell seeds, so stdout is identical for any worker
// count. With --budget-seconds N the pass repeats with fresh seeds until
// the wall budget runs out (the scheduled long-fuzz CI mode).
//
// The sweep is fault-tolerant: cells run under exec::run_jobs_recover, so
// one schedule that trips the engine watchdog (--max-steps, or a real
// deadlock/livelock) is *quarantined* — recorded with a minimized repro —
// while every other cell completes and reports. --checkpoint FILE records
// each completed (pass, config, seed) cell as it finishes; re-running with
// the same flags resumes the sweep without re-running completed cells.
// --inject-abort config:seed:steps plants a deterministic engine abort in
// one cell (CI smoke for the quarantine path); --fault-severity runs every
// schedule on seed-derived degraded silicon (fault::FaultPlan).
//
// --warm-snapshot pauses every schedule at a seed-derived engine step,
// round-trips a capmem::snap snapshot (capture -> encode -> decode ->
// digest-verify), then resumes; stdout is byte-identical either way (the
// CI tier-1 identity table asserts the md5). Checkpoint lines then carry the
// cell's snapshot id as a fifth field — the same snap::snapshot_id scheme
// the repro files embed.
//
// On divergence the harness minimizes the first failing schedule (prefix
// bisection + thread halving), bisects the first checker-visible bad
// engine step (locate_divergence) to name a last-good snapshot, writes a
// self-contained repro to --repro-out, optionally re-runs it into a Chrome
// trace (--trace-on-divergence), and exits 1. A sweep whose only failures
// are quarantined aborts exits 2 with a partial-results summary.
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "check/differ.hpp"
#include "exec/experiment.hpp"
#include "exec/progress.hpp"
#include "exec/seed.hpp"

using namespace capmem;
using namespace capmem::sim;
using namespace capmem::check;

namespace {

struct ConfigCell {
  ClusterMode cluster;
  MemoryMode memory;
  std::string name;
};

std::vector<ConfigCell> all_configs() {
  std::vector<ConfigCell> cells;
  for (ClusterMode cm : all_cluster_modes()) {
    for (MemoryMode mm :
         {MemoryMode::kFlat, MemoryMode::kCache, MemoryMode::kHybrid}) {
      cells.push_back({cm, mm,
                       std::string(to_string(cm)) + "/" + to_string(mm)});
    }
  }
  return cells;
}

// Completed-cell ledger: one "P|Q <pass> <config> <trial> [<snapshot-id>]"
// line per finished cell (P = passed, Q = quarantined). The optional fifth
// field is the snap::snapshot_id of the cell's mid-run capture under
// --warm-snapshot. Divergent cells are never checkpointed — a resumed sweep
// re-runs them and fails again.
using CellKey = std::tuple<int, std::size_t, std::size_t>;

/// Parses a whole token of decimal digits into `v`; false on anything else
/// (sign, other characters, overflow of T).
template <class T>
bool parse_digits(std::string_view s, T& v) {
  if (s.empty() || s.front() < '0' || s.front() > '9') return false;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && end == s.data() + s.size();
}

/// Records one ledger line in `done`; false, recording nothing, unless the
/// line is exactly "P|Q <int> <int> <int>" with an optional " snap-<16
/// hex>" (resume keys only on pass, config and trial).
bool parse_ledger_line(std::string_view line,
                       std::map<CellKey, char>& done) {
  std::vector<std::string_view> f;
  for (std::size_t pos = 0;;) {
    const std::size_t sp = line.find(' ', pos);
    f.push_back(line.substr(pos, sp - pos));
    if (sp == std::string_view::npos) break;
    pos = sp + 1;
  }
  if (f.size() != 4 && f.size() != 5) return false;
  if (f[0] != "P" && f[0] != "Q") return false;
  int pass = 0;
  std::size_t cell = 0, trial = 0;
  if (!parse_digits(f[1], pass) || !parse_digits(f[2], cell) ||
      !parse_digits(f[3], trial)) {
    return false;
  }
  if (f.size() == 5) {
    const std::string_view id = f[4];
    if (id.size() != 21 || id.substr(0, 5) != "snap-" ||
        id.find_first_not_of("0123456789abcdef", 5) != std::string_view::npos) {
      return false;
    }
  }
  done[{pass, cell, trial}] = f[0][0];
  return true;
}

struct Checkpoint {
  std::map<CellKey, char> done;
  std::string text;  ///< the well-formed lines, each ending in '\n'
};

/// Reads the ledger line by line. A final line without '\n' is a write a
/// crash cut short and is dropped; so is every malformed line.
Checkpoint load_checkpoint(const std::string& path) {
  Checkpoint c;
  std::vector<std::uint8_t> bytes;
  if (!common::read_file(path, &bytes)) return c;
  const std::string_view all(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size());
  for (std::size_t pos = 0, nl; (nl = all.find('\n', pos)) != all.npos;
       pos = nl + 1) {
    const std::string_view line = all.substr(pos, nl - pos);
    if (parse_ledger_line(line, c.done)) {
      c.text += line;
      c.text += '\n';
    }
  }
  return c;
}

/// Append-only handle on the ledger: one write(2) of one whole line per
/// completed cell under the lock, then an fsync outside it, so workers
/// serialize only on the write. A crash tears at most the last line, which
/// the next load drops.
class LedgerFile {
 public:
  explicit LedgerFile(const std::string& path)
      : fd_(::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC)) {}
  ~LedgerFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  LedgerFile(const LedgerFile&) = delete;
  LedgerFile& operator=(const LedgerFile&) = delete;

  bool is_open() const { return fd_ >= 0; }

  /// Appends `line` (which ends in '\n') durably; false, with errno set,
  /// when a write or the fsync fails.
  bool append(const std::string& line) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (std::size_t off = 0; off < line.size();) {
        const ssize_t n =
            ::write(fd_, line.data() + off, line.size() - off);
        if (n < 0) {
          if (errno == EINTR) continue;
          return false;
        }
        off += static_cast<std::size_t>(n);
      }
    }
    return ::fsync(fd_) == 0;
  }

 private:
  int fd_;
  std::mutex mu_;  // one line per write: appends never interleave
};

std::string errno_text() {
  return std::error_code(errno, std::generic_category()).message();
}

// One quarantined cell of this run.
struct Quarantine {
  WorkloadSpec spec;
  bool reproducible = false;  ///< spec re-runs to the same failure
  std::string report;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  obs::Session obs(cli, argc, argv);
  const int seeds = static_cast<int>(cli.get_int(
      "seeds", 70, "schedules per configuration per pass"));
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "base seed"));
  const int threads = static_cast<int>(
      cli.get_int("threads", 10, "simulated threads per schedule"));
  const int ops = static_cast<int>(
      cli.get_int("ops", 160, "ops per simulated thread"));
  const int data_lines = static_cast<int>(
      cli.get_int("data-lines", 12, "shared data lines"));
  const int counter_lines = static_cast<int>(
      cli.get_int("counter-lines", 2, "fetch-add counter lines"));
  const double budget = cli.get_double(
      "budget-seconds", 0.0, "repeat with fresh seeds until exhausted");
  const std::string repro_out = cli.get_string(
      "repro-out", "fuzz_repro.txt", "divergence repro file");
  const std::string trace_out = cli.get_string(
      "trace-on-divergence", "",
      "Chrome trace of the minimized divergence");
  const std::uint64_t max_steps = static_cast<std::uint64_t>(cli.get_int(
      "max-steps", 0, "engine step budget per schedule (0 = unlimited)"));
  const int fault_severity = static_cast<int>(cli.get_int(
      "fault-severity", 0, "degraded-silicon severity 0-3 for every cell"));
  const std::string machine_s = cli.get_string(
      "machine", "knl_38t",
      "machine preset every cell runs on (see machine_preset)");
  const Protocol protocol = parse_protocol(cli.get_string(
      "protocol", "mesif", "coherence protocol (mesif, mesi, mosi)"));
  const std::string checkpoint_path = cli.get_string(
      "checkpoint", "", "completed-cell ledger for resume ('' = off)");
  const std::string inject_abort = cli.get_string(
      "inject-abort", "",
      "config:seed:steps — step-budget abort in one pass-0 cell");
  const std::string quarantine_out = cli.get_string(
      "quarantine-out", "fuzz_quarantine.txt",
      "partial-results summary file (written when cells are quarantined)");
  const bool warm_snapshot = cli.get_flag(
      "warm-snapshot", false,
      "pause every schedule mid-run, round-trip a snapshot through the "
      "byte format, then resume (stdout must not change)");
  const int jobs = cli.get_jobs();
  const bool progress = cli.get_flag(
      "progress", false,
      "heartbeat line on stderr (completed/total, rate, eta, quarantines)");
  cli.finish();
  obs.set_config("fuzz-diff all-modes");
  obs.set_seed(base_seed);
  obs.set_jobs(jobs);

  long inj_cell = -1, inj_trial = -1, inj_steps = 0;
  if (!inject_abort.empty()) {
    if (std::sscanf(inject_abort.c_str(), "%ld:%ld:%ld", &inj_cell,
                    &inj_trial, &inj_steps) != 3 ||
        inj_cell < 0 || inj_trial < 0 || inj_steps <= 0) {
      std::cerr << "bad --inject-abort '" << inject_abort
                << "' (want config:seed:steps)\n";
      return 64;
    }
  }

  const std::vector<ConfigCell> cells = all_configs();
  const auto make_spec = [&](int pass, std::size_t cell, std::size_t trial) {
    WorkloadSpec spec;
    spec.threads = threads;
    spec.ops_per_thread = ops;
    spec.data_lines = data_lines;
    spec.counter_lines = counter_lines;
    spec.seed = exec::derive_seed(
        base_seed + static_cast<std::uint64_t>(pass), cell, trial);
    spec.cluster = cells[cell].cluster;
    spec.memory = cells[cell].memory;
    spec.max_steps = max_steps;
    spec.fault_severity = fault_severity;
    spec.machine = machine_s;
    spec.protocol = protocol;
    if (pass == 0 && static_cast<long>(cell) == inj_cell &&
        static_cast<long>(trial) == inj_trial) {
      spec.max_steps = static_cast<std::uint64_t>(inj_steps);
    }
    return spec;
  };

  std::map<CellKey, char> done;
  // The prior ledger's well-formed lines are rewritten through the atomic
  // path (common/atomic_file.hpp) before any append, so new lines never
  // extend a torn or malformed one.
  std::optional<LedgerFile> ledger;
  if (!checkpoint_path.empty()) {
    try {
      Checkpoint prior = load_checkpoint(checkpoint_path);
      done = std::move(prior.done);
      common::atomic_write_file(checkpoint_path, prior.text);
    } catch (const std::exception& e) {
      std::cerr << "cannot write checkpoint '" << checkpoint_path
                << "': " << e.what() << '\n';
      return 64;
    }
    ledger.emplace(checkpoint_path);
    if (!ledger->is_open()) {
      std::cerr << "cannot open checkpoint '" << checkpoint_path
                << "': " << errno_text() << '\n';
      return 64;
    }
  }
  const std::size_t resumed = done.size();
  if (resumed > 0) {
    std::cout << "checkpoint: skipping " << resumed
              << " completed cell(s) from " << checkpoint_path << '\n';
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // Heartbeat for the sweep: run_jobs grows the total as each pass is
  // dispatched and ticks per completed cell; the recovery layer feeds
  // quarantine counts. Uninstalled (and its line finished) before the
  // table goes to stdout so the two streams never interleave confusingly.
  std::unique_ptr<exec::ProgressMeter> meter;
  if (progress) {
    meter = std::make_unique<exec::ProgressMeter>("fuzz");
    exec::set_progress_meter(meter.get());
  }

  std::vector<std::uint64_t> per_cell_schedules(cells.size(), 0);
  std::vector<std::uint64_t> per_cell_divergences(cells.size(), 0);
  std::uint64_t total_schedules = 0;
  std::uint64_t total_divergences = 0;
  bool have_failure = false;
  WorkloadSpec first_failure;
  std::vector<Quarantine> quarantined;

  int pass = 0;
  do {
    obs.phase("pass" + std::to_string(pass));
    const int njobs = static_cast<int>(cells.size()) * seeds;

    // Cells still to run this pass (everything, without a checkpoint).
    std::vector<int> pending;
    std::vector<DiffOutcome> outcomes(static_cast<std::size_t>(njobs));
    pending.reserve(static_cast<std::size_t>(njobs));
    for (int i = 0; i < njobs; ++i) {
      const std::size_t cell = static_cast<std::size_t>(i) /
                               static_cast<std::size_t>(seeds);
      const std::size_t trial = static_cast<std::size_t>(i) %
                                static_cast<std::size_t>(seeds);
      const auto it = done.find({pass, cell, trial});
      if (it == done.end()) {
        pending.push_back(i);
        continue;
      }
      DiffOutcome& o = outcomes[static_cast<std::size_t>(i)];
      o.spec = make_spec(pass, cell, trial);
      if (it->second == 'Q') {
        o.ok = false;
        o.aborted = true;
        o.report = "  quarantined in a previous run (checkpoint)\n";
      }
    }

    auto [slots, report] = exec::try_parallel_map<DiffOutcome>(
        static_cast<int>(pending.size()), jobs, [&](int p) {
          const int i = pending[static_cast<std::size_t>(p)];
          const std::size_t cell = static_cast<std::size_t>(i) /
                                   static_cast<std::size_t>(seeds);
          const std::size_t trial = static_cast<std::size_t>(i) %
                                    static_cast<std::size_t>(seeds);
          const WorkloadSpec spec = make_spec(pass, cell, trial);
          DiffOptions opts;
          if (warm_snapshot) {
            // Deterministic per-spec pause point, varied across cells so
            // the snapshot lands in different schedule phases. Schedules
            // shorter than the pause simply complete uninterrupted.
            opts.snapshot_at_step = 1 + spec.seed % 2048;
          }
          DiffOutcome o = run_diff(spec, nullptr, obs.attr(), opts);
          if (ledger && (o.ok || o.aborted)) {
            std::ostringstream entry;
            entry << (o.ok ? 'P' : 'Q') << ' ' << pass << ' ' << cell
                  << ' ' << trial;
            if (!o.snapshot_id.empty()) entry << ' ' << o.snapshot_id;
            entry << '\n';
            if (!ledger->append(entry.str())) {
              // Checkpointing is an optimization; the cell result stands.
              std::cerr << "checkpoint write failed: " << errno_text()
                        << '\n';
            }
          }
          return o;
        });
    for (std::size_t p = 0; p < pending.size(); ++p) {
      outcomes[static_cast<std::size_t>(pending[p])] = std::move(slots[p]);
    }
    // Host-side failures (exceptions that escaped run_diff itself): the
    // recovery layer kept the batch alive; fold them in as quarantined.
    for (const exec::JobFailure& f : report.failures) {
      const int i = pending[f.job];
      DiffOutcome& o = outcomes[static_cast<std::size_t>(i)];
      o.ok = false;
      o.aborted = true;
      o.report = "  job " + std::string(to_string(f.status)) + " after " +
                 std::to_string(f.attempts) + " attempt(s): " + f.error +
                 '\n';
    }

    for (int i = 0; i < njobs; ++i) {
      const std::size_t cell = static_cast<std::size_t>(i) /
                               static_cast<std::size_t>(seeds);
      const DiffOutcome& o = outcomes[static_cast<std::size_t>(i)];
      per_cell_schedules[cell]++;
      total_schedules++;
      if (o.ok) continue;
      if (o.aborted) {
        std::cout << "QUARANTINE " << o.spec.label() << " ["
                  << cells[cell].name << "]:\n"
                  << o.report << '\n';
        quarantined.push_back(Quarantine{o.spec, false, o.report});
        continue;
      }
      per_cell_divergences[cell]++;
      total_divergences++;
      if (!have_failure) {
        have_failure = true;
        first_failure = o.spec;
        std::cout << "DIVERGENCE " << o.spec.label() << ":\n"
                  << o.report << '\n';
      }
    }
    ++pass;
  } while (!have_failure && quarantined.empty() && budget > 0 &&
           elapsed_s() < budget);

  exec::set_progress_meter(nullptr);
  meter.reset();  // finishes the stderr line before stdout's table

  Table t("fuzz-diff — schedules per configuration");
  t.set_header({"config", "schedules", "divergences"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    t.add_row({cells[c].name, std::to_string(per_cell_schedules[c]),
               std::to_string(per_cell_divergences[c])});
  }
  benchbin::emit(t);

  if (obs.metrics() != nullptr) {
    obs.metrics()->add("check.schedules",
                       static_cast<double>(total_schedules));
    obs.metrics()->add("check.divergences",
                       static_cast<double>(total_divergences));
    obs.metrics()->add("check.quarantined",
                       static_cast<double>(quarantined.size()));
  }

  if (have_failure) {
    std::cout << "minimizing first divergence...\n";
    const WorkloadSpec min_spec = minimize(first_failure);
    DiffOutcome min_out;
    if (!trace_out.empty()) {
      obs::ChromeTraceWriter writer(trace_out);
      min_out = run_diff(min_spec, &writer);
      writer.flush();
      std::cout << "trace: " << trace_out << '\n';
    } else {
      min_out = run_diff(min_spec);
    }
    // Snapshot bisection: find the first checker-visible bad engine step
    // and name the last-good state so the repro carries a restorable
    // checkpoint id (same snap::snapshot_id scheme as --checkpoint lines).
    const bool min_reproduced = !min_out.ok;
    const WorkloadSpec& repro_spec = min_reproduced ? min_spec
                                                    : first_failure;
    const DivergencePoint where = locate_divergence(repro_spec);
    std::ofstream repro(repro_out);
    repro << repro_text(min_reproduced ? min_out : run_diff(first_failure),
                        &where);
    std::cout << "repro: " << repro_out << " (" << min_spec.label()
              << ")\n";
    std::cout << "FAIL fuzz-diff: " << total_schedules << " schedules, "
              << total_divergences << " divergences\n";
    return 1;
  }

  if (!quarantined.empty()) {
    // Partial results: everything else completed. Minimize the first
    // quarantined cell that still reproduces (checkpoint-synthesized
    // entries and one-shot host failures may not).
    bool wrote_repro = false;
    for (Quarantine& q : quarantined) {
      const DiffOutcome again = run_diff(q.spec);
      if (again.ok) continue;
      q.reproducible = true;
      std::cout << "minimizing first quarantined abort...\n";
      const WorkloadSpec min_spec = minimize(q.spec);
      const DiffOutcome min_out = run_diff(min_spec);
      const DivergencePoint where =
          locate_divergence(min_out.ok ? q.spec : min_spec);
      std::ofstream repro(repro_out);
      repro << repro_text(min_out.ok ? again : min_out, &where);
      std::cout << "repro: " << repro_out << " (" << min_spec.label()
                << ")\n";
      wrote_repro = true;
      break;
    }
    std::ofstream qf(quarantine_out);
    qf << "capmem fuzz-diff partial results\n"
       << "completed: " << (total_schedules - quarantined.size())
       << " schedule(s), quarantined: " << quarantined.size() << '\n';
    for (const Quarantine& q : quarantined) {
      qf << "quarantined " << q.spec.label()
         << (q.reproducible ? " [reproduced]" : "") << '\n'
         << q.report;
    }
    std::cout << "quarantine summary: " << quarantine_out << '\n';
    if (!wrote_repro) {
      std::cout << "(no quarantined cell reproduced on re-run; "
                   "no repro written)\n";
    }
    std::cout << "PARTIAL fuzz-diff: " << total_schedules
              << " schedules, " << quarantined.size()
              << " quarantined, 0 divergences\n";
    return 2;
  }

  std::cout << "PASS fuzz-diff: " << total_schedules
            << " schedules across " << cells.size()
            << " configurations, 0 divergences\n";
  return 0;
}
