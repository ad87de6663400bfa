// Observability layer: histograms, the metrics registry, Chrome trace
// output, run manifests — and the layer's central contract, that attaching
// sinks never perturbs virtual time ("sinks observe, never steer").
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/workload.hpp"
#include "exec/pool.hpp"
#include "obs/attr.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "snap/snapshot.hpp"

namespace capmem::obs {
namespace {

// --- a minimal JSON well-formedness checker ------------------------------
// Enough of RFC 8259 to reject truncated or mis-quoted documents; the CI
// smoke job additionally validates real outputs with python -m json.tool.

struct JsonParser {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool string() {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    return eat('"');
  }
  bool number() {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
            s[i] == '.' || s[i] == 'e' || s[i] == 'E' || s[i] == '-' ||
            s[i] == '+')) {
      ++i;
    }
    return i > start;
  }
  bool literal(const char* lit) {
    ws();
    const std::size_t n = std::string(lit).size();
    if (s.compare(i, n, lit) != 0) return false;
    i += n;
    return true;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
};

bool valid_json(const std::string& doc) {
  JsonParser p{doc};
  if (!p.value()) return false;
  p.ws();
  return p.i == doc.size();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(JsonChecker, SanityOnKnownDocuments) {
  EXPECT_TRUE(valid_json(R"({"a": [1, 2.5, -3e4], "b": {"c": "x\"y"}})"));
  EXPECT_TRUE(valid_json("[true, false, null]"));
  EXPECT_FALSE(valid_json(R"({"a": 1)"));
  EXPECT_FALSE(valid_json(R"({"a" 1})"));
  EXPECT_FALSE(valid_json("[1, 2,]{"));
}

// --- Log2Hist ------------------------------------------------------------

TEST(Log2Hist, RecordsIntoPowerOfTwoBuckets) {
  Log2Hist h;
  h.record(1.0);
  h.record(3.0);
  h.record(1000.0);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 1004.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1004.0 / 3.0);
  // Every sample must land in a bucket whose upper edge covers it and whose
  // predecessor does not.
  std::uint64_t total = 0;
  for (int i = 0; i < Log2Hist::kBuckets; ++i) total += h.buckets[i];
  EXPECT_EQ(total, 3u);
  for (int i = 1; i < Log2Hist::kBuckets; ++i) {
    EXPECT_GT(Log2Hist::bucket_le(i), Log2Hist::bucket_le(i - 1));
  }
}

TEST(Log2Hist, ZeroAndNegativeGoToBucketZero) {
  Log2Hist h;
  h.record(0.0);
  h.record(-5.0);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.count, 2u);
}

TEST(Log2Hist, MergeIsAdditive) {
  Log2Hist a, b;
  a.record(2.0);
  a.record(64.0);
  b.record(0.5);
  b.record(1e6);
  Log2Hist m = a;
  m.merge(b);
  EXPECT_EQ(m.count, 4u);
  EXPECT_DOUBLE_EQ(m.sum, a.sum + b.sum);
  EXPECT_DOUBLE_EQ(m.min, 0.5);
  EXPECT_DOUBLE_EQ(m.max, 1e6);
  Log2Hist empty;
  m.merge(empty);  // merging an empty hist changes nothing
  EXPECT_EQ(m.count, 4u);
  EXPECT_DOUBLE_EQ(m.min, 0.5);
}

// --- Registry ------------------------------------------------------------

TEST(Registry, CountersGaugesHistograms) {
  Registry r;
  EXPECT_TRUE(r.empty());
  r.add("c", 2);
  r.add("c", 3);
  r.set("g", 7);
  r.record("h", 10);
  r.record("h", 20);
  EXPECT_DOUBLE_EQ(r.counter("c"), 5);
  EXPECT_TRUE(r.has_counter("c"));
  EXPECT_FALSE(r.has_counter("missing"));
  EXPECT_DOUBLE_EQ(r.counter("missing"), 0);
  EXPECT_DOUBLE_EQ(r.gauge("g"), 7);
  EXPECT_EQ(r.hist("h").count, 2u);
  EXPECT_FALSE(r.empty());
}

TEST(Registry, DumpIsValidJson) {
  Registry r;
  r.add("sim.jobs", 4);
  r.set("exec.workers", 8);
  r.record("weird \"name\"\n", 1.5);
  std::ostringstream os;
  r.dump_json(os);
  EXPECT_TRUE(valid_json(os.str())) << os.str();
  EXPECT_NE(os.str().find("capmem.metrics.v1"), std::string::npos);
}

TEST(Registry, ProcessRegistryInstallUninstall) {
  EXPECT_EQ(process_registry(), nullptr);
  Registry r;
  set_process_registry(&r);
  EXPECT_EQ(process_registry(), &r);
  set_process_registry(nullptr);
  EXPECT_EQ(process_registry(), nullptr);
}

// --- trace categories ----------------------------------------------------

TEST(Trace, CategoryParsing) {
  EXPECT_EQ(parse_categories("all"), kCatAll);
  EXPECT_EQ(parse_categories("task"), kCatTask);
  EXPECT_EQ(parse_categories("task,channel"), kCatTask | kCatChannel);
  EXPECT_THROW(parse_categories("bogus"), CheckError);
  EXPECT_EQ(category_of(EventKind::kTaskResume), kCatTask);
  EXPECT_EQ(category_of(EventKind::kChannelXfer), kCatChannel);
  EXPECT_EQ(category_of(EventKind::kCoherence), kCatCoherence);
}

// --- RunManifest ---------------------------------------------------------

TEST(Manifest, DumpIsValidJson) {
  RunManifest m;
  m.program = "test_obs";
  m.args = {"--trace-out", "x \"quoted\".json"};
  m.config = "knl7210 SNC4/flat";
  m.seed = 42;
  m.jobs = 8;
  m.phases.push_back({"fit", 12.5});
  m.phases.push_back({"sweep", 99.0});
  std::ostringstream os;
  m.dump_json(os);
  EXPECT_TRUE(valid_json(os.str())) << os.str();
  EXPECT_NE(os.str().find("capmem.manifest.v1"), std::string::npos);
  EXPECT_NE(os.str().find("sweep"), std::string::npos);
}

// --- simulator integration -----------------------------------------------

// A small mixed workload on the tiny machine: local hits, a cross-tile
// transfer, and cold memory traffic through both pools. Returns the machine
// so tests can inspect post-run accessors.
struct Workload {
  std::unique_ptr<sim::Machine> m;
  double elapsed = 0;
};

Workload run_workload(sim::MachineConfig cfg, TraceSink* sink,
                      Registry* metrics) {
  using namespace capmem::sim;
  cfg.trace = sink;
  cfg.metrics = metrics;
  Workload w;
  w.m = std::make_unique<Machine>(cfg);
  Machine& m = *w.m;
  const Addr shared = m.alloc("shared", kLineBytes, {}, true);
  const Addr dram = m.alloc("dram", KiB(16), {MemKind::kDDR, std::nullopt});
  const Addr mcd =
      m.alloc("mcd", KiB(16), {MemKind::kMCDRAM, std::nullopt});
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.write_u64(shared, 1);       // M in tile 0
    co_await ctx.read_buf(dram, KiB(16));    // DRAM channels
    co_await ctx.sync();
    co_await ctx.sync();
  });
  m.add_thread({2, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.sync();
    co_await ctx.read_u64(shared);           // remote M: coherence downgrade
    co_await ctx.write_u64(shared, 2);       // RFO: invalidation + upgrade
    co_await ctx.read_buf(mcd, KiB(16));     // MCDRAM channels
    co_await ctx.sync();
  });
  m.run();
  w.elapsed = m.elapsed();
  return w;
}

sim::MachineConfig quiet_tiny() {
  sim::MachineConfig cfg = sim::tiny_machine();
  cfg.noise.enabled = false;
  return cfg;
}

// The seam's contract: every subset of the four MachineConfig observers
// {trace, metrics, check, attr} (bit 0..3 of the parameter) leaves the
// simulated results — and the snapshot bytes of the final machine — exactly
// those of the detached run.
class AttachInvariance : public ::testing::TestWithParam<int> {};

struct ObservedRun {
  check::WorkloadResult result;
  std::vector<std::uint8_t> snapshot;
};

ObservedRun run_observed(int mask) {
  check::WorkloadSpec spec;
  spec.threads = 8;
  spec.ops_per_thread = 120;
  spec.seed = 7;
  NullSink trace;
  Registry metrics;
  check::Checker checker(check::workload_config(spec));
  attr::Sink attr;
  check::WorkloadRun run(spec, (mask & 4) != 0 ? &checker : nullptr,
                         (mask & 1) != 0 ? &trace : nullptr,
                         (mask & 8) != 0 ? &attr : nullptr,
                         (mask & 2) != 0 ? &metrics : nullptr);
  run.run_until(0);
  ObservedRun out;
  out.snapshot = snap::encode(snap::capture(run.machine()),
                              run.machine().config());
  out.result = run.take_result();
  EXPECT_TRUE(checker.ok()) << checker.report();
  if ((mask & 2) != 0) {
    EXPECT_EQ(metrics.counter("sim.machines"), 1.0);
  }
  if ((mask & 8) != 0) {
    EXPECT_EQ(attr.machines(), 1u);
  }
  return out;
}

TEST_P(AttachInvariance, ObserversNeverSteer) {
  static const ObservedRun detached = run_observed(0);
  const ObservedRun observed = run_observed(GetParam());
  const check::WorkloadResult& with = observed.result;
  const check::WorkloadResult& without = detached.result;
  ASSERT_TRUE(with.ran) << with.error;
  ASSERT_TRUE(without.ran) << without.error;
  EXPECT_DOUBLE_EQ(with.elapsed, without.elapsed);
  EXPECT_EQ(with.dir_lines, without.dir_lines);
  EXPECT_EQ(with.final_data, without.final_data);
  EXPECT_EQ(with.final_counter, without.final_counter);
  EXPECT_EQ(with.final_slot, without.final_slot);
  EXPECT_EQ(observed.snapshot, detached.snapshot);
}

INSTANTIATE_TEST_SUITE_P(Subsets, AttachInvariance, ::testing::Range(0, 16));

TEST(TraceIntegration, ChromeTraceIsValidJsonWithAllEventFamilies) {
  const std::string path = tmp_path("events_trace.json");
  double elapsed = 0;
  std::uint64_t nevents = 0;
  {
    ChromeTraceWriter w(path);
    elapsed = run_workload(quiet_tiny(), &w, nullptr).elapsed;
    w.flush();
    nevents = w.events_written();
    EXPECT_EQ(w.path(), path);
  }
  EXPECT_GT(elapsed, 0.0);
  EXPECT_GT(nevents, 0u);
  const std::string doc = slurp(path);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(valid_json(doc)) << doc.substr(0, 400);
  // The mixed workload must produce every major event family.
  EXPECT_NE(doc.find(R"("cat":"task")"), std::string::npos);
  EXPECT_NE(doc.find(R"("cat":"access")"), std::string::npos);
  EXPECT_NE(doc.find(R"("cat":"coherence")"), std::string::npos);
  EXPECT_NE(doc.find(R"("cat":"directory")"), std::string::npos);
  EXPECT_NE(doc.find(R"("cat":"channel")"), std::string::npos);
  EXPECT_NE(doc.find(R"("name":"sync")"), std::string::npos);
  // Track metadata names both pools.
  EXPECT_NE(doc.find("dram"), std::string::npos);
  EXPECT_NE(doc.find("mcdram"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceIntegration, CategoryFilterDropsUnrequestedKinds) {
  const std::string path = tmp_path("filtered_trace.json");
  {
    ChromeTraceWriter w(path, kCatChannel);
    run_workload(quiet_tiny(), &w, nullptr);
  }
  const std::string doc = slurp(path);
  EXPECT_TRUE(valid_json(doc));
  EXPECT_NE(doc.find(R"("cat":"channel")"), std::string::npos);
  EXPECT_EQ(doc.find(R"("cat":"task")"), std::string::npos);
  EXPECT_EQ(doc.find(R"("cat":"access")"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsIntegration, FlushedRegistryCoversComponents) {
  Registry reg;
  Workload w = run_workload(quiet_tiny(), nullptr, &reg);
  sim::Machine* m = w.m.get();
  ASSERT_NE(m, nullptr);

  // Channel busy time flows into per-pool counters...
  EXPECT_GT(reg.counter("sim.dram.busy_ns"), 0.0);
  EXPECT_GT(reg.counter("sim.mcdram.busy_ns"), 0.0);
  EXPECT_GT(reg.counter("sim.dram.ch0.busy_ns"), 0.0);
  // ...and matches the Machine accessors (satellite: utilization API).
  double dram_busy = 0;
  for (int c = 0; c < m->config().dram_channels(); ++c) {
    dram_busy += m->dram_channel_busy(c);
  }
  EXPECT_DOUBLE_EQ(reg.counter("sim.dram.busy_ns"), dram_busy);
  EXPECT_GT(m->dram_utilization(), 0.0);
  EXPECT_LE(m->dram_utilization(), 1.0);
  EXPECT_GT(m->mcdram_utilization(), 0.0);
  EXPECT_GT(m->core_issue_busy(0), 0.0);
  EXPECT_GT(m->l2_supply_busy(0), 0.0);

  // Utilization histograms carry one sample per channel.
  EXPECT_EQ(reg.hist("sim.dram.channel_util").count,
            static_cast<std::uint64_t>(m->config().dram_channels()));

  // Queue-delay distributions exist per thread and in aggregate.
  EXPECT_GT(reg.hist("sim.mem.queue_delay_ns").count, 0u);
  EXPECT_GT(reg.hist("sim.mem.queue_delay_ns.tid0").count, 0u);

  // Directory and NoC activity from the coherence traffic.
  EXPECT_GT(reg.counter("sim.noc.hops"), 0.0);
  EXPECT_GT(reg.hist("sim.cha.queue_ns").count, 0u);
  bool any_home = false;
  for (int t = 0; t < 64; ++t) {
    if (reg.has_counter("sim.dir.home" + std::to_string(t) + ".requests")) {
      any_home = true;
    }
  }
  EXPECT_TRUE(any_home);

  // ThreadCounters aggregates and run header.
  EXPECT_GT(reg.counter("sim.mem.line_ops"), 0.0);
  EXPECT_DOUBLE_EQ(reg.counter("sim.machines"), 1.0);
  EXPECT_GT(reg.counter("sim.elapsed_ns"), 0.0);

  std::ostringstream os;
  reg.dump_json(os);
  EXPECT_TRUE(valid_json(os.str()));
}

TEST(MetricsIntegration, ParkTableDrainsAndPoolStaysBounded) {
  // A flag ping-pong that parks on many distinct lines over the run. The
  // end-of-run gauges must show the park table fully drained and its pool
  // sized to the peak number of concurrently parked keys — not the total
  // number of park/wake cycles (the table reclaims slots on wake-all).
  using namespace capmem::sim;
  Registry reg;
  sim::MachineConfig cfg = quiet_tiny();
  cfg.metrics = &reg;
  Machine m(cfg);
  constexpr int kRounds = 32;
  // One flag line per round: distinct wait keys throughout the run.
  const Addr flags = m.alloc("flags", kRounds * kLineBytes,
                             {MemKind::kDDR, std::nullopt}, true);
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    for (int r = 0; r < kRounds; ++r) {
      co_await ctx.write_u64(flags + static_cast<Addr>(r) * kLineBytes, 1);
    }
  });
  m.add_thread({1, 0}, [&](Ctx& ctx) -> Task {
    for (int r = 0; r < kRounds; ++r) {
      co_await ctx.wait_eq(flags + static_cast<Addr>(r) * kLineBytes, 1);
    }
  });
  m.run();
  EXPECT_DOUBLE_EQ(reg.gauge("sim.engine.park.keys"), 0.0);
  // At most one key is parked at any instant here; allow a little slack for
  // the waiter overlapping adjacent rounds.
  EXPECT_LE(reg.gauge("sim.engine.park.pool_slots"), 4.0);
}

TEST(MetricsIntegration, ExecRunJobsProfilesIntoProcessRegistry) {
  Registry reg;
  set_process_registry(&reg);
  std::vector<std::function<void()>> jobs;
  std::atomic<int> ran{0};
  for (int i = 0; i < 12; ++i) jobs.push_back([&ran] { ++ran; });
  exec::run_jobs(std::move(jobs), 4);
  set_process_registry(nullptr);
  EXPECT_EQ(ran.load(), 12);
  EXPECT_DOUBLE_EQ(reg.counter("exec.jobs"), 12.0);
  EXPECT_DOUBLE_EQ(reg.counter("exec.batches"), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("exec.workers"), 4.0);
  EXPECT_EQ(reg.hist("exec.job_wall_us").count, 12u);
  EXPECT_EQ(reg.hist("exec.job_queue_wait_us").count, 12u);
  EXPECT_GT(reg.hist("exec.worker_util").count, 0u);
}

TEST(MetricsIntegration, RunJobsUnprofiledWithoutRegistry) {
  ASSERT_EQ(process_registry(), nullptr);
  std::vector<std::function<void()>> jobs;
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) jobs.push_back([&ran] { ++ran; });
  exec::run_jobs(std::move(jobs), 2);  // must not crash or record anywhere
  EXPECT_EQ(ran.load(), 5);
}

}  // namespace
}  // namespace capmem::obs
