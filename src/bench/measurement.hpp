// Shared measurement scaffolding for the benchmark suite.
//
// Conventions follow the paper (§III.A): every experiment runs many
// iterations; per-iteration values are reduced with the maximum across the
// participating threads ("the cost of each iteration within each thread —
// we use the maximum value measured per iteration"); medians are reported,
// and series carry full Summaries so confidence intervals and boxplots can
// be printed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace capmem::bench {

/// Accumulates per-iteration samples.
class SampleVec {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  const std::vector<double>& values() const { return v_; }
  Summary summary() const { return summarize(v_); }
  double median() const { return capmem::median(v_); }
  double max() const;

 private:
  std::vector<double> v_;
};

/// One named series of (x, Summary) points — the shape behind every figure.
struct Series {
  std::string name;
  std::vector<double> xs;
  std::vector<Summary> ys;

  void add(double x, const Summary& y) {
    xs.push_back(x);
    ys.push_back(y);
  }
  std::size_t size() const { return xs.size(); }
};

/// Global iteration defaults. The paper uses 1000 iterations throughout;
/// the simulator's determinism lets the suite converge with fewer, and every
/// bench binary exposes --iters to restore the paper's count.
struct RunOpts {
  int iters = 101;
  std::uint64_t seed = 1;
};

}  // namespace capmem::bench
