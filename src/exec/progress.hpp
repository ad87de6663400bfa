// Opt-in heartbeat for long experiment batches (--progress).
//
// A ProgressMeter renders a single throttled status line to stderr
// ("fuzz  12/96 jobs  4.1/s  eta 20s  quarantined 1") while exec::run_jobs
// works through a batch. It is installed process-wide (like the process
// registry); run_jobs ticks it once per completed job and the recovery
// layer feeds quarantine counts. Without an installed meter the hot path
// pays one pointer test per batch.
//
// stderr only, and throttled on host wall time: stdout stays byte-identical
// with the meter on or off, so goldens and fuzz transcripts never see it.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace capmem::exec {

class ProgressMeter {
 public:
  /// `total` == 0 means indeterminate: the line shows a running count only
  /// (figure sweeps enqueue batches of unknown overall size).
  explicit ProgressMeter(std::string label, std::uint64_t total = 0);
  /// Finishes the line with a newline when anything was rendered.
  ~ProgressMeter();

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Grows the expected-total (run_jobs adds each batch it dispatches).
  void add_total(std::uint64_t n);
  /// Marks `n` jobs completed (also called for failed jobs: they consumed
  /// a slot). Re-renders the line, rate-limited on wall time.
  void tick(std::uint64_t n = 1);
  /// Counts jobs the recovery layer quarantined.
  void note_quarantined(std::uint64_t n);

  std::uint64_t completed() const;
  std::uint64_t total() const;
  std::uint64_t quarantined() const;

  /// The status line as rendered (no carriage return / newline): label,
  /// completed[/total] jobs, jobs per second, eta when the total is known,
  /// quarantine count when nonzero.
  std::string line() const;

 private:
  std::string render_locked() const;
  void show_locked();

  std::string label_;
  mutable std::mutex mu_;
  std::uint64_t total_;
  std::uint64_t done_ = 0;
  std::uint64_t quarantined_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_show_;
  bool shown_ = false;
};

/// The installed meter, or null. Not thread-safe to install mid-batch:
/// set it before batches start, clear it after (benches do both around
/// their sweep).
ProgressMeter* progress_meter();
/// Installs `m` (null to uninstall); returns the previous meter.
ProgressMeter* set_progress_meter(ProgressMeter* m);

}  // namespace capmem::exec
