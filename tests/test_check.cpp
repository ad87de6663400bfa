// Unit tests for the capmem::check layer: generator determinism, oracle
// bookkeeping on crafted workloads, and end-to-end run_diff agreement.
// Checker purity (attaching it must not change simulation results) is
// covered with every other observer by test_obs.cpp's AttachInvariance.
// The 15-configuration sweep lives in test_fuzz.cpp; the fault-injection
// counterpart (checker MUST flag a corrupted simulator) in
// test_mutation.cpp.
#include <gtest/gtest.h>

#include "check/differ.hpp"
#include "sim/machine.hpp"

namespace capmem::check {
namespace {

TEST(Workload, GeneratorIsDeterministic) {
  WorkloadSpec spec;
  spec.seed = 42;
  const auto a = generate_ops(spec);
  const auto b = generate_ops(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size());
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      EXPECT_EQ(a[t][i].kind, b[t][i].kind);
      EXPECT_EQ(a[t][i].arg, b[t][i].arg);
      EXPECT_EQ(a[t][i].val, b[t][i].val);
      EXPECT_DOUBLE_EQ(a[t][i].ns, b[t][i].ns);
    }
  }
}

TEST(Workload, SeedsProduceDistinctSchedules) {
  WorkloadSpec a, b;
  a.seed = 1;
  b.seed = 2;
  const auto oa = generate_ops(a);
  const auto ob = generate_ops(b);
  bool differ = false;
  for (std::size_t i = 0; i < oa[0].size() && !differ; ++i) {
    differ = oa[0][i].kind != ob[0][i].kind || oa[0][i].arg != ob[0][i].arg;
  }
  EXPECT_TRUE(differ);
}

TEST(Workload, EncodeValueIdentifiesWriter) {
  EXPECT_NE(encode_value(0, 1), 0u);  // shadow 0 <=> never written
  EXPECT_NE(encode_value(0, 1), encode_value(1, 1));
  EXPECT_NE(encode_value(3, 7), encode_value(3, 8));
  EXPECT_EQ(encode_value(2, 5) >> 32, 3u);
  EXPECT_EQ(encode_value(2, 5) & 0xffffffffu, 5u);
}

TEST(Checker, OracleTracksLastWriter) {
  sim::MachineConfig cfg = sim::knl7210();
  Checker checker(cfg);
  cfg.check = &checker;
  sim::Machine m(cfg);
  const sim::Addr a = m.alloc("x", kLineBytes, {}, true);
  const auto slots = sim::make_schedule(cfg, sim::Schedule::kScatter, 1);
  m.add_thread(slots[0], [&](sim::Ctx& ctx) -> sim::Task {
    co_await ctx.write_u64(a, encode_value(0, 1));
    co_await ctx.write_u64(a, encode_value(0, 2));
    co_await ctx.read_u64(a);
  });
  m.run();
  checker.final_sweep(m.memsys());
  EXPECT_TRUE(checker.ok()) << checker.report();
  const Oracle::WriterInfo* w = checker.oracle().writer(sim::line_of(a));
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->last_tid, 0);
  EXPECT_EQ(w->last_count, 2u);
  EXPECT_EQ(w->total_writes, 2u);
  EXPECT_EQ(m.space().load<std::uint64_t>(a), encode_value(0, 2));
}

TEST(Checker, CountsAccessesAndTransitions) {
  WorkloadSpec spec;
  spec.threads = 6;
  spec.ops_per_thread = 80;
  Checker checker(workload_config(spec));
  const WorkloadResult r = run_workload(spec, &checker);
  ASSERT_TRUE(r.ran);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.oracle().accesses(), 0u);
  EXPECT_GT(checker.oracle().writes(), 0u);
  EXPECT_GT(checker.transitions(), 0u);
  EXPECT_TRUE(checker.report().empty());
}

TEST(Diff, CleanSimulatorPassesAcrossSeeds) {
  for (std::uint64_t seed : {3u, 17u, 91u}) {
    WorkloadSpec spec;
    spec.threads = 8;
    spec.ops_per_thread = 120;
    spec.seed = seed;
    const DiffOutcome out = run_diff(spec);
    EXPECT_TRUE(out.ok) << spec.label() << '\n' << out.report;
    EXPECT_EQ(out.violations, 0u);
  }
}

TEST(Diff, HeavyContentionSingleLine) {
  WorkloadSpec spec;
  spec.threads = 12;
  spec.data_lines = 1;  // every write contends on one line
  spec.counter_lines = 1;
  spec.ops_per_thread = 150;
  spec.seed = 5;
  const DiffOutcome out = run_diff(spec);
  EXPECT_TRUE(out.ok) << out.report;
}

TEST(Diff, PrefixTruncatesExecution) {
  WorkloadSpec full;
  full.threads = 6;
  full.ops_per_thread = 100;
  full.seed = 23;
  WorkloadSpec cut = full;
  cut.prefix = 10;
  const DiffOutcome a = run_diff(full);
  const DiffOutcome b = run_diff(cut);
  ASSERT_TRUE(a.ok) << a.report;
  ASSERT_TRUE(b.ok) << b.report;
  EXPECT_LT(b.elapsed, a.elapsed);
}

TEST(Diff, ReproTextRoundTrips) {
  WorkloadSpec spec;
  spec.threads = 4;
  spec.ops_per_thread = 30;
  spec.seed = 8;
  const DiffOutcome out = run_diff(spec);
  ASSERT_TRUE(out.ok);
  const std::string text = repro_text(out);
  EXPECT_NE(text.find("seed=8"), std::string::npos);
  EXPECT_NE(text.find("t0:"), std::string::npos);
  EXPECT_NE(text.find("t3:"), std::string::npos);
}

}  // namespace
}  // namespace capmem::check
