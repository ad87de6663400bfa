#include <gtest/gtest.h>

#include "bench/measurement.hpp"

namespace capmem::bench {
namespace {

TEST(SampleVec, CollectsAndSummarizes) {
  SampleVec v;
  for (double x : {3.0, 1.0, 2.0}) v.add(x);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v.median(), 2.0);
  EXPECT_DOUBLE_EQ(v.max(), 3.0);
  EXPECT_EQ(v.summary().n, 3u);
  EXPECT_EQ(SampleVec{}.size(), 0u);
  EXPECT_DOUBLE_EQ(SampleVec{}.max(), 0.0);
}

TEST(Series, AccumulatesPoints) {
  Series s;
  s.name = "t";
  Summary y;
  y.median = 5;
  s.add(1.0, y);
  s.add(2.0, y);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.xs[1], 2.0);
  EXPECT_DOUBLE_EQ(s.ys[0].median, 5.0);
}

TEST(RunOpts, PaperDefaultsDocumented) {
  const RunOpts r;
  EXPECT_GE(r.iters, 51);  // enough for stable medians on the simulator
  EXPECT_EQ(r.seed, 1u);
}

}  // namespace
}  // namespace capmem::bench
