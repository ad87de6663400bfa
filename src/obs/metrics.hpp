// Component metrics: counters, gauges and fixed-bucket log2 histograms.
//
// The hot-path contract: a Machine's observer (sim/fanout.hpp) records
// into its *own* fixed-size Log2Hist / counter fields (no locks, no
// allocations) and merges them into the shared Registry once, at the end of
// the run.
// Registry operations take a mutex and use string keys — they are end-of-run
// and harness-level operations, never per-access ones.
//
// The Registry dump is a stable JSON document (keys sorted, deterministic
// formatting) written by --metrics-out.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

namespace capmem::obs {

/// Power-of-two-bucketed histogram with a fixed footprint. Bucket `i` counts
/// values v with 2^(i-1-kBias) < v <= 2^(i-kBias); bucket 0 additionally
/// absorbs v <= 0. With kBias = 16 the buckets span ~1.5e-5 ns .. 1.4e14 ns,
/// comfortably covering queue delays through whole-run wall times.
struct Log2Hist {
  static constexpr int kBuckets = 64;
  static constexpr int kBias = 16;

  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  void record(double v);
  void merge(const Log2Hist& o);
  double mean() const { return count == 0 ? 0.0 : sum / count; }
  /// Upper edge of bucket `i`.
  static double bucket_le(int i);
};

/// Named instrument store. Thread-safe: concurrent Machines (exec::Pool
/// workers) merge their end-of-run metrics under one mutex.
class Registry {
 public:
  /// Adds `delta` to counter `name` (created at 0).
  void add(const std::string& name, double delta);
  /// Sets gauge `name`; concurrent setters race benignly (last write wins),
  /// use counters or histograms for aggregation across machines.
  void set(const std::string& name, double v);
  /// Records one sample into histogram `name`.
  void record(const std::string& name, double v);
  /// Merges a locally accumulated histogram into histogram `name`.
  void merge_hist(const std::string& name, const Log2Hist& h);

  double counter(const std::string& name) const;  ///< 0 when absent
  bool has_counter(const std::string& name) const;
  double gauge(const std::string& name) const;    ///< 0 when absent
  /// Copy of histogram `name`; zero-count when absent.
  Log2Hist hist(const std::string& name) const;

  bool empty() const;

  /// Deterministic JSON dump (schema documented in DESIGN.md §Observability).
  void dump_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Log2Hist> hists_;
};

/// Process-wide registry used by host-side layers that have no MachineConfig
/// to carry hooks (exec::run_jobs worker/queue profiling). Null by default;
/// obs::Session installs its registry here for the --metrics-out lifetime.
Registry* process_registry();
void set_process_registry(Registry* r);

}  // namespace capmem::obs
