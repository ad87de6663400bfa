// capbench driver: runs one benchmark workload against the capmem library
// and prints one JSON document on stdout — per-pass host wall times, the
// per-operation latencies, digests of the simulated results, and (traced
// runs) the per-layer metrics. capbench/run.py builds this program, runs
// it and turns its document into the benchmark's metrics; README.md in this
// directory describes the workloads and metrics.
//
//   capbench_driver --workload stream|sort|collectives|serve --seed N
//                   --seconds S [--trace] [--setup-only] [--t0 UNIX_S]
//                   [--jobs J] [--passes P] [--scratch DIR]
//
// A pass is one execution of the workload's fixed work, run in a child
// process forked after set-up. The driver repeats passes until --seconds
// have elapsed (at least one; --passes P runs exactly P). With --trace the
// time is split: untraced passes first, then passes with an obs::Registry
// attached through MachineConfig::metrics (and as the process registry, for
// exec.*), then isolated per-op timings of the simulator layers.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/stream.hpp"
#include "bench/suite.hpp"
#include "coll/harness.hpp"
#include "common/rng.hpp"
#include "model/fit.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "sim/line_table.hpp"
#include "sim/machine.hpp"
#include "sort/harness.hpp"

namespace {

using namespace capmem;
using Clock = std::chrono::steady_clock;
using serve::Json;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double unix_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Current resident set, from /proc/self/statm (0 if unreadable).
double rss_now_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  double t0 = 0;  ///< unix time the caller started this process (0: unknown)
  int jobs = 0;   ///< 0 = the workload's default
  int passes = 0; ///< 0 = as many as fit in --seconds
  std::string scratch = ".bench_build/capbench-scratch";
};

/// FNV-1a over the bit patterns of simulated results.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void add(const Summary& s) {
    add(static_cast<std::uint64_t>(s.n));
    for (double v : {s.min, s.q1, s.median, s.q3, s.max}) add(v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// One execution of a workload's fixed work.
struct Pass {
  /// Host seconds of the pass. measure_pass times the whole of run_pass
  /// unless run_pass sets this itself to leave out work around the
  /// workload's own.
  double wall_s = 0;
  std::vector<double> op_ms;            ///< one entry per timed module call
  std::map<std::string, double> spans;  ///< module span -> host seconds
  std::map<std::string, double> counts; ///< workload-level counts
  Digest digest;
  int attempted = 0;
  int failed = 0;
  double err_sum = 0;  ///< summed relative errors (accuracy cells)
  int err_cells = 0;

  /// Times one call into a module, recording it as an operation and under
  /// the module's span.
  template <typename F>
  auto timed(const char* span, F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto r = f();
    const double s = secs_since(t0);
    op_ms.push_back(s * 1e3);
    spans[span] += s;
    return r;
  }
  void score(double measured, double reference) {
    err_sum += std::abs(measured - reference) / reference;
    ++err_cells;
  }
  /// Scores a measurement against a model's min-max band: 0 inside it,
  /// otherwise the distance to the nearer edge relative to that edge.
  void score_band(double measured, double best, double worst) {
    score(measured, std::min(std::max(measured, best), worst));
  }
  double err_pct() const {
    return err_cells == 0 ? 0.0 : 100.0 * err_sum / err_cells;
  }
};

/// Runs `f` in a forked child and returns the document it produced, so the
/// child's heap and peak RSS never reach this process. The caller is
/// single-threaded here; the child may start threads.
template <typename F>
Json in_child(F&& f) {
  // The child's peak RSS includes the heap it inherits; trimming first keeps
  // that baseline from depending on how much freed memory malloc retained.
  malloc_trim(0);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed driver
    close(fds[0]);
    int rc = 0;
    std::string out;
    try {
      out = f().dump();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "capbench: child failed: %s\n", e.what());
      rc = 1;
    }
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) {
        rc = 1;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(rc);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process failed");
  }
  return Json::parse(text);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input generation, first Machine, server start-up.
  virtual void setup() = 0;
  /// Reference data the accuracy check needs, prepared once per process
  /// after setup_s is taken and outside every timed pass.
  virtual void prepare() {}
  /// One pass; `reg` is non-null in traced passes.
  virtual Pass run_pass(obs::Registry* reg) = 0;
  /// Config whose Machine construction cost is reported as
  /// sim.build_ns_per_machine.
  virtual sim::MachineConfig probe_config() const = 0;
  /// Workload-specific per-layer samples of the pass just run.
  virtual void layers(Json&) const {}
};

// ---------------------------------------------------------------------------
// stream: the paper's randomized NT STREAM protocol (Table II / Fig. 9 shape)

class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(const Options& o) : o_(o) {}

  void setup() override {
    flat_ = sim::knl7210(sim::ClusterMode::kQuadrant, sim::MemoryMode::kFlat);
    flat_.seed = o_.seed;
    cache_ =
        sim::knl7210(sim::ClusterMode::kQuadrant, sim::MemoryMode::kCache);
    cache_.scale_memory(64);
    cache_.seed = o_.seed;
    using K = sim::MemKind;
    using Op = bench::StreamOp;
    // Paper Table II, QUAD column, randomized-NT medians (GB/s). DRAM
    // saturates by 16 threads and MCDRAM needs the full chip, so the
    // 16-thread MCDRAM cells have no paper counterpart. Cache mode runs at
    // 16 threads as table2_memory does.
    for (K kind : {K::kDDR, K::kMCDRAM}) {
      for (int n : {16, 64}) {
        for (Op op : {Op::kCopy, Op::kTriad}) {
          double paper = 0;
          if (kind == K::kDDR) paper = op == Op::kCopy ? 70 : 74;
          if (kind == K::kMCDRAM && n == 64)
            paper = op == Op::kCopy ? 333 : 340;
          cells_.push_back({false, kind, n, op, paper});
        }
      }
    }
    for (Op op : {Op::kCopy, Op::kTriad}) {
      const double paper = op == Op::kCopy ? 175 : 296;
      cells_.push_back({true, K::kDDR, 16, op, paper});
    }
    sim::Machine first(flat_);
    (void)first;
  }

  Pass run_pass(obs::Registry* reg) override {
    Pass p;
    for (const Cell& c : cells_) {
      sim::MachineConfig cfg = c.cache_mode ? cache_ : flat_;
      cfg.metrics = reg;
      bench::StreamConfig sc;
      sc.run.iters = 3;
      sc.run.seed = o_.seed;
      sc.nthreads = c.threads;
      sc.kind = c.kind;
      sc.nt = true;
      sc.buffer_bytes = KiB(64);
      const bench::StreamResult r = p.timed(
          "bench.stream_bench_s",
          [&] { return bench::stream_bench(cfg, c.op, sc); });
      p.digest.add(r.gbps);
      p.digest.add(r.peak_gbps);
      ++p.attempted;
      if (!(r.gbps.median > 0)) ++p.failed;
      if (c.paper > 0) p.score(r.gbps.median, c.paper);
    }
    return p;
  }

  sim::MachineConfig probe_config() const override { return flat_; }

 private:
  struct Cell {
    bool cache_mode;
    sim::MemKind kind;
    int threads;
    bench::StreamOp op;
    double paper;  ///< 0: no paper reference
  };
  Options o_;
  sim::MachineConfig flat_, cache_;
  std::vector<Cell> cells_;
};

// ---------------------------------------------------------------------------
// sort: parallel bitonic merge sort (Fig. 10 shape) plus the overhead fit

class SortWorkload : public Workload {
 public:
  explicit SortWorkload(const Options& o) : o_(o) {}

  void setup() override {
    cfg_ = sim::knl7210(sim::ClusterMode::kSNC4, sim::MemoryMode::kFlat);
    cfg_.seed = o_.seed;
    sim::Machine first(cfg_);
    (void)first;
  }

  /// The capability model the sort model is built on: the cache half of the
  /// suite plus 1-thread and full-chip copy anchors, as fig10_sort does,
  /// at reduced iteration counts. Prepared once per process, outside both
  /// setup_s and the timed passes. The fit runs in a child process and only
  /// the model text comes back: the heap it leaves behind would otherwise
  /// raise every pass's peak RSS by an amount that depends on the seed.
  void prepare() override {
    const Json doc = in_child([&] {
      bench::SuiteOptions so;
      so.run.iters = 11;
      so.run.seed = o_.seed;
      model::CapabilityModel caps = model::fit_cache_model(cfg_, so);
      for (int ki = 0; ki < 2; ++ki) {
        const sim::MemKind kind = ki == 0 ? sim::MemKind::kDDR
                                          : sim::MemKind::kMCDRAM;
        double anchor[2];
        for (int a = 0; a < 2; ++a) {
          bench::StreamConfig sc;
          sc.kind = kind;
          sc.run.iters = 3;
          sc.run.seed = o_.seed;
          sc.buffer_bytes = KiB(128);
          sc.nthreads =
              a == 0 ? 1 : (kind == sim::MemKind::kDDR ? 16 : cfg_.cores());
          anchor[a] = bench::stream_bench(cfg_, bench::StreamOp::kCopy, sc)
                          .gbps.median;
        }
        auto& law = ki == 0 ? caps.bw_dram : caps.bw_mcdram;
        law.per_thread_gbps = anchor[0] / 2.0;  // copy moves R+W bytes
        law.aggregate_gbps = anchor[1] / 2.0;
      }
      std::ostringstream text;
      caps.save(text);
      Json j = Json::object();
      j.set("model", text.str());
      return j;
    });
    std::istringstream text(doc.find("model")->as_string());
    caps_ = model::CapabilityModel::load(text);
  }

  Pass run_pass(obs::Registry* reg) override {
    Pass p;
    sim::MachineConfig cfg = cfg_;
    cfg.metrics = reg;
    sort::SortOptions so;
    so.kind = sim::MemKind::kMCDRAM;
    so.seed = o_.seed;
    const std::vector<int> fit_threads{1, 2, 4, 8, 16, 32, 64};
    ++p.attempted;
    std::unique_ptr<model::SortModel> sm;
    try {
      sm = std::make_unique<model::SortModel>(
          p.timed("sort.make_sort_model_s", [&] {
            return sort::make_sort_model(cfg, caps_, so.kind, fit_threads,
                                         so, 1);
          }));
      p.digest.add(sm->overhead().alpha);
      p.digest.add(sm->overhead().beta);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "capbench: sort model fit failed: %s\n", e.what());
      ++p.failed;
    }
    const std::uint64_t bytes = MiB(2);
    for (sim::MemKind kind : {sim::MemKind::kDDR, sim::MemKind::kMCDRAM}) {
      for (int n : {16, 64}) {
        sort::SortOptions o = so;
        o.kind = kind;
        const sort::SortRun r = p.timed("sort.merge_sort_s", [&] {
          return sort::parallel_merge_sort(cfg, bytes, n, o);
        });
        ++p.attempted;
        const bool ok = r.sorted_ok && r.checksum_ok;
        if (!ok) ++p.failed;
        p.counts["sort.keys"] += static_cast<double>(bytes / 4);
        p.counts["sort.unsorted"] += ok ? 0 : 1;
        p.digest.add(r.total_ns);
        p.digest.add(static_cast<std::uint64_t>(ok));
        if (sm) p.score(r.total_ns, sm->predict_full(bytes, n, kind, true));
      }
    }
    return p;
  }

  sim::MachineConfig probe_config() const override { return cfg_; }

 private:
  Options o_;
  sim::MachineConfig cfg_;
  model::CapabilityModel caps_;
};

// ---------------------------------------------------------------------------
// collectives: measure -> fit -> tune -> validate (Figs. 6-8)

class CollectivesWorkload : public Workload {
 public:
  explicit CollectivesWorkload(const Options& o)
      : o_(o), jobs_(o.jobs > 0 ? o.jobs : 2) {}

  void setup() override {
    cfg_ = sim::knl7210(sim::ClusterMode::kSNC4, sim::MemoryMode::kFlat);
    cfg_.seed = o_.seed;
    // One sweep per figure (tuned, OpenMP-style, MPI-style) as the fig6-8
    // binaries batch them.
    using coll::Algo;
    const Algo figures[3][3] = {
        {Algo::kTunedBarrier, Algo::kOmpBarrier, Algo::kMpiBarrier},
        {Algo::kTunedBroadcast, Algo::kOmpBroadcast, Algo::kMpiBroadcast},
        {Algo::kTunedReduce, Algo::kOmpReduce, Algo::kMpiReduce}};
    for (const auto& algos : figures) {
      std::vector<coll::SweepPoint> points;
      for (Algo a : algos) {
        for (int n : {2, 4, 8, 16, 32, 64, 128, 256}) points.push_back({a, n});
      }
      sweeps_.push_back(std::move(points));
    }
    sim::Machine first(cfg_);
    (void)first;
  }

  Pass run_pass(obs::Registry* reg) override {
    Pass p;
    sim::MachineConfig cfg = cfg_;
    cfg.metrics = reg;
    bench::SuiteOptions so;
    so.run.iters = 31;
    so.run.seed = o_.seed;
    so.streams = false;
    so.jobs = jobs_;
    const bench::SuiteResults suite = p.timed(
        "bench.run_suite_s", [&] { return bench::run_suite(cfg, so); });
    const model::CapabilityModel m =
        p.timed("model.fit_s", [&] { return model::fit(suite); });
    std::ostringstream text;
    m.save(text);
    p.digest.add(text.str());
    for (const std::vector<coll::SweepPoint>& points : sweeps_) {
      for (sim::Schedule sched :
           {sim::Schedule::kFillTiles, sim::Schedule::kScatter}) {
        sweep(p, cfg, m, points, sched);
      }
    }
    return p;
  }

  sim::MachineConfig probe_config() const override { return cfg_; }

 private:
  Options o_;
  int jobs_;
  sim::MachineConfig cfg_;
  std::vector<std::vector<coll::SweepPoint>> sweeps_;

  void sweep(Pass& p, const sim::MachineConfig& cfg,
             const model::CapabilityModel& m,
             const std::vector<coll::SweepPoint>& points,
             sim::Schedule sched) const {
    coll::HarnessOptions ho;
    ho.iters = 101;
    ho.sched = sched;
    ho.seed = o_.seed;
    const std::vector<coll::CollResult> rs = p.timed("coll.sweep_s", [&] {
      return coll::run_collective_sweep(cfg, points, &m, ho, jobs_);
    });
    for (const coll::CollResult& r : rs) {
      ++p.attempted;
      if (r.errors != 0) ++p.failed;
      p.counts["coll.cells"] += 1;
      p.counts["coll.errors"] += static_cast<double>(r.errors);
      p.digest.add(r.per_iter_max);
      p.digest.add(static_cast<std::uint64_t>(r.errors));
      if (!r.has_band) continue;
      p.digest.add(r.band.best_ns);
      p.digest.add(r.band.worst_ns);
      p.score_band(r.per_iter_max.median, r.band.best_ns, r.band.worst_ns);
    }
  }
};

// ---------------------------------------------------------------------------
// serve: one closed-loop client against an in-process serve::Server

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Options& o) : o_(o) {}

  void setup() override {
    make_requests();
    server_ = start_server();
  }

  /// Accuracy reference for the served predictions: each predicted
  /// (collective, threads, schedule) cell measured on the simulator, with
  /// the tuned algorithm built from a model fitted the way the Server fits
  /// it.
  void prepare() override {
    stop_server();  // passes run in forked children, each with its own
    const sim::MachineConfig cfg = probe_config();
    bench::SuiteOptions so;
    so.fast = true;
    so.streams = false;
    const model::CapabilityModel m = model::fit_cache_model(cfg, so);
    for (auto& [key, measured] : reference_) {
      const PredictCell c = parse_cell(key);
      coll::HarnessOptions ho;
      ho.iters = 101;
      ho.sched = sim::Schedule::kScatter;  // the Server's default schedule
      ho.cell_kind = sim::MemKind::kDDR;
      ho.seed = o_.seed;
      measured =
          coll::run_collective(cfg, c.algo, c.threads, &m, ho)
              .per_iter_max.median;
    }
  }

  /// The pass's wall time is the time spent in submit/drain: Server
  /// start-up is measured by setup_s, and the reply checks and removing the
  /// cache directory are the benchmark's own work.
  Pass run_pass(obs::Registry* reg) override {
    server_ = start_server();
    serve::Server& srv = *server_;
    Pass p;
    std::uint64_t hits = srv.counters().cache_hit;
    std::string stream;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const std::string& line = requests_[i];
      std::ostringstream os;
      const Clock::time_point t0 = Clock::now();
      srv.submit(line);
      srv.drain(os);
      const double s = secs_since(t0);
      p.wall_s += s;
      const double ms = s * 1e3;
      p.op_ms.push_back(ms);
      const std::uint64_t h = srv.counters().cache_hit;
      (h != hits ? hit_ms_ : miss_ms_).push_back(ms);
      hits = h;
      const std::string reply = os.str();
      ++p.attempted;
      bool ok = false;
      try {
        const Json doc = Json::parse(reply.substr(0, reply.find('\n')));
        const Json* okv = doc.find("ok");
        ok = okv != nullptr && okv->is_bool() && okv->as_bool();
        const Json* res = doc.find("result");
        if (ok && !predict_key_[i].empty() && res != nullptr) {
          const Json* best = res->find("best_ns");
          const Json* worst = res->find("worst_ns");
          ok = best != nullptr && worst != nullptr;
          if (ok) {
            p.score_band(reference_.at(predict_key_[i]), best->as_number(),
                         worst->as_number());
          }
        }
      } catch (const std::exception&) {
        ok = false;
      }
      if (!ok) ++p.failed;
      stream += reply;
    }
    p.digest.add(stream);
    if (reg != nullptr) srv.mirror_metrics(reg);
    stop_server();
    return p;
  }

  sim::MachineConfig probe_config() const override {
    return sim::machine_preset("tiny_8t");
  }

  void layers(Json& out) const override {
    Json hit = Json::array(), miss = Json::array();
    for (double v : hit_ms_) hit.push(v);
    for (double v : miss_ms_) miss.push(v);
    out.set("serve.hit_ms.samples", std::move(hit));
    out.set("serve.miss_ms.samples", std::move(miss));
  }

  ~ServeWorkload() override { stop_server(); }

 private:
  static constexpr int kRequests = 1000, kCold = kRequests / 2;

  struct PredictCell {
    coll::Algo algo;
    int threads;
  };

  /// Reference keys are "collective threads".
  static PredictCell parse_cell(const std::string& key) {
    std::istringstream is(key);
    std::string coll_name;
    int threads = 0;
    is >> coll_name >> threads;
    using coll::Algo;
    const Algo algo = coll_name == "broadcast" ? Algo::kTunedBroadcast
                      : coll_name == "reduce"  ? Algo::kTunedReduce
                      : coll_name == "barrier" ? Algo::kTunedBarrier
                                               : Algo::kTunedAllreduce;
    return {algo, threads};
  }

  /// The traffic `capmem_serve --bench` sends (bench_requests in
  /// bench/capmem_serve.cpp), with seeded values. Request i of the cold half
  /// is a simulate (tiny_8t, 6 threads, 40 ops) when i % 3 == 0, a predict
  /// (the four collectives in rotation at 1-16 threads, default schedule)
  /// when i % 3 == 1, and a fit of 8 points on one of five lines otherwise.
  /// As in --bench and the pre-warm recipe of EXPERIMENTS.md, the second
  /// half replays the first over the warm cache. The seed picks the simulate
  /// seeds and the fitted lines; the predict cells are those of --bench for
  /// every seed, so every seed asks for the same amount of work.
  void make_requests() {
    static const char* kCollectives[] = {"broadcast", "reduce", "barrier",
                                         "allreduce"};
    Rng rng(o_.seed * 0x9e3779b97f4a7c15ull + 7);
    const std::uint64_t sim_seed = rng.next_below(std::uint64_t{1} << 30);
    const double a = rng.uniform(1, 10), b = rng.uniform(0.5, 4);
    std::vector<Json> cold;
    for (int i = 0; i < kCold; ++i) {
      Json r = Json::object();
      if (i % 3 == 0) {
        r.set("type", "simulate");
        r.set("machine", "tiny_8t");
        r.set("threads", 6);
        r.set("ops", 40);
        r.set("seed", sim_seed + static_cast<std::uint64_t>(i));
      } else if (i % 3 == 1) {
        r.set("type", "predict");
        r.set("machine", "tiny_8t");
        r.set("collective", kCollectives[(i / 3) % 4]);
        r.set("threads", 1 + i % 16);
      } else {
        Json xs = Json::array(), ys = Json::array();
        for (int k = 0; k < 8; ++k) {
          xs.push(k);
          ys.push(a + b * k + ((i + k) % 5) * 0.25);
        }
        r.set("type", "fit");
        r.set("xs", std::move(xs));
        r.set("ys", std::move(ys));
      }
      cold.push_back(std::move(r));
    }
    for (int i = 0; i < kRequests; ++i) {
      Json r = cold[static_cast<std::size_t>(i % kCold)];
      // Each predict cell is scored once, at its first reply. The harness
      // measures collectives of two or more threads only.
      std::string key;
      if (r.find("type")->as_string() == "predict") {
        const int threads = static_cast<int>(r.find("threads")->as_number());
        key = r.find("collective")->as_string() + " " +
              std::to_string(threads);
        if (threads < 2 || !reference_.emplace(key, 0).second) key.clear();
      }
      predict_key_.push_back(key);
      r.set("id", i);
      requests_.push_back(r.dump());
    }
  }

  std::unique_ptr<serve::Server> start_server() {
    serve::ServerOptions so;
    so.cache_dir = o_.scratch + "/serve-" + std::to_string(getpid());
    std::filesystem::remove_all(so.cache_dir);
    std::filesystem::create_directories(o_.scratch);
    so.workers = 2;
    dir_ = so.cache_dir;
    return std::make_unique<serve::Server>(so);
  }

  void stop_server() {
    server_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

  Options o_;
  std::vector<std::string> requests_;
  std::vector<std::string> predict_key_;  ///< reference key; "" if none
  std::map<std::string, double> reference_;  ///< key -> measured median ns
  std::unique_ptr<serve::Server> server_;
  std::string dir_;
  std::vector<double> hit_ms_, miss_ms_;
};

// ---------------------------------------------------------------------------
// Isolated per-op timings of the simulator layers (as bench/micro_sim does)

volatile double g_sink = 0;

template <typename F>
double median_ns_per_op(int reps, double ops, F&& body) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    v.push_back(secs_since(t0) * 1e9 / ops);
  }
  return median(v);
}

void isolated_layers(Json& out, const sim::MachineConfig& probe) {
  using namespace capmem::sim;
  out.set("sim.engine.step_ns", median_ns_per_op(5, 20000, [] {
            Engine e(1);
            auto prog = []() -> Task {
              for (int i = 0; i < 20000; ++i) co_await Advance{1.0};
            };
            e.spawn(prog());
            e.run();
            g_sink = g_sink + e.now();
          }));
  {
    LineTable<LineEntry> table;
    for (std::uint64_t k = 0; k < 100000; ++k) table.get_or_create(k);
    out.set("sim.line_table.find_ns", median_ns_per_op(5, 1e6, [&] {
              std::uintptr_t acc = 0;
              for (std::uint64_t k = 0; k < 1000000; ++k)
                acc += reinterpret_cast<std::uintptr_t>(
                    table.find((k * 7919) % 100000));
              g_sink = g_sink + static_cast<double>(acc & 1);
            }));
  }
  MachineConfig cfg = knl7210();
  cfg.noise.enabled = false;
  Topology topo(cfg);
  {
    Rng rng(1);
    MemSystem mem(cfg, topo, rng);
    Placement place;
    Nanos now = mem.access(0, 0, 5, place, AccessType::kRead, {}, 0).finish;
    out.set("sim.memsys.l1_hit_ns", median_ns_per_op(5, 200000, [&] {
              for (int i = 0; i < 200000; ++i)
                now = mem.access(0, 0, 5, place, AccessType::kRead, {}, now)
                          .finish;
              g_sink = g_sink + now;
            }));
  }
  out.set("sim.memsys.stream_miss_ns", median_ns_per_op(5, 100000, [&] {
            Rng rng(1);
            MemSystem mem(cfg, topo, rng);
            Placement place;
            AccessOpts opts;
            opts.streaming = true;
            Nanos now = 0;
            for (Line line = 0; line < 100000; ++line)
              now = mem.access(0, 0, line, place, AccessType::kRead, opts,
                               now)
                        .finish;
            g_sink = g_sink + now;
          }));
  out.set("sim.spin_wake_ns", median_ns_per_op(5, 500, [&] {
            constexpr int kRounds = 500;
            Machine m(cfg);
            const Addr a = m.alloc("a", kLineBytes, {}, true);
            const Addr b = m.alloc("b", kLineBytes, {}, true);
            m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
              for (int i = 1; i <= kRounds; ++i) {
                co_await ctx.write_u64(a, static_cast<std::uint64_t>(i));
                co_await ctx.wait_eq(b, static_cast<std::uint64_t>(i));
              }
            });
            m.add_thread({10, 0}, [&](Ctx& ctx) -> Task {
              for (int i = 1; i <= kRounds; ++i) {
                co_await ctx.wait_eq(a, static_cast<std::uint64_t>(i));
                co_await ctx.write_u64(b, static_cast<std::uint64_t>(i));
              }
            });
            m.run();
            g_sink = g_sink + m.elapsed();
          }));
  out.set("sim.build_ns_per_machine", median_ns_per_op(5, 1, [&] {
            Machine m(probe);
            g_sink = g_sink + m.elapsed();
          }));
}

/// Quantile of a Log2Hist: the upper edge of the bucket holding it.
double hist_quantile(const obs::Log2Hist& h, double q) {
  if (h.count == 0) return 0;
  const double target = q * static_cast<double>(h.count);
  double cum = 0;
  for (int i = 0; i < obs::Log2Hist::kBuckets; ++i) {
    cum += static_cast<double>(h.buckets[static_cast<std::size_t>(i)]);
    // Bucket 0 holds the zero (and sub-2^-16) samples.
    if (cum >= target) {
      return i == 0 ? 0.0 : std::min(obs::Log2Hist::bucket_le(i), h.max);
    }
  }
  return h.max;
}

/// Counters the program flushes into the registry (one traced pass).
void registry_layers(Json& out, const obs::Registry& reg) {
  for (const char* c :
       {"sim.machines", "sim.mem.line_ops", "sim.mem.l1_hits",
        "sim.mem.l2_tile_hits", "sim.mem.remote_hits", "sim.mem.dram_lines",
        "sim.mem.mcdram_lines", "sim.mem.mc_cache_hits", "sim.noc.hops",
        "sim.dram.busy_ns", "sim.mcdram.busy_ns"}) {
    out.set(c, reg.counter(c));
  }
  double dir = 0;
  for (int t = 0; t < sim::kMaxCoherenceTiles; ++t)
    dir += reg.counter("sim.dir.home" + std::to_string(t) + ".requests");
  out.set("sim.dir.requests", dir);
  out.set("sim.engine.park.pool_slots",
          reg.gauge("sim.engine.park.pool_slots"));
  const obs::Log2Hist qd = reg.hist("sim.mem.queue_delay_ns");
  out.set("sim.mem.queue_delay_ns.p50", hist_quantile(qd, 0.50));
  out.set("sim.mem.queue_delay_ns.p99", hist_quantile(qd, 0.99));
  const obs::Log2Hist qw = reg.hist("exec.job_queue_wait_us");
  out.set("exec.job_queue_wait_us.p50", hist_quantile(qw, 0.50));
  out.set("exec.job_queue_wait_us.p99", hist_quantile(qw, 0.99));
  out.set("exec.worker_util", reg.hist("exec.worker_util").mean());
  if (const double requests = reg.gauge("serve.requests"); requests > 0) {
    out.set("serve.cache.hit_ratio", reg.gauge("serve.cache.hit") / requests);
    for (const char* g : {"serve.shed", "serve.errors", "serve.retries"})
      out.set(g, reg.gauge(g));
  }
}

Json pass_json(const Pass& p) {
  Json j = Json::object();
  j.set("wall_s", p.wall_s);
  j.set("digest", p.digest.hex());
  j.set("attempted", p.attempted);
  j.set("failed", p.failed);
  j.set("err_pct", p.err_pct());
  Json ops = Json::array();
  for (double v : p.op_ms) ops.push(v);
  j.set("op_ms", std::move(ops));
  Json spans = Json::object();
  for (const auto& [k, v] : p.spans) spans.set(k, v);
  j.set("spans", std::move(spans));
  Json counts = Json::object();
  for (const auto& [k, v] : p.counts) counts.set(k, v);
  j.set("counts", std::move(counts));
  return j;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "stream") return std::make_unique<StreamWorkload>(o);
  if (o.workload == "sort") return std::make_unique<SortWorkload>(o);
  if (o.workload == "collectives")
    return std::make_unique<CollectivesWorkload>(o);
  if (o.workload == "serve") return std::make_unique<ServeWorkload>(o);
  return nullptr;
}

/// One pass, in the calling process. A traced pass attaches a fresh
/// Registry (as the Machines' metrics sink and as the process registry) and
/// reports the counters it collected under "layers".
Json measure_pass(Workload& w, bool traced) {
  std::unique_ptr<obs::Registry> reg;
  if (traced) {
    reg = std::make_unique<obs::Registry>();
    obs::set_process_registry(reg.get());
  }
  const Clock::time_point t0 = Clock::now();
  Pass p = w.run_pass(reg.get());
  if (p.wall_s == 0) p.wall_s = secs_since(t0);
  obs::set_process_registry(nullptr);
  Json j = pass_json(p);
  j.set("peak_rss_mb", peak_rss_mb());
  Json layers = Json::object();
  w.layers(layers);
  if (reg) registry_layers(layers, *reg);
  for (const auto& [k, v] : p.counts) layers.set(k, v);
  j.set("layers", std::move(layers));
  return j;
}

/// Runs passes until `budget_s` is spent (at least one), or exactly
/// `fixed` passes when fixed > 0.
Json run_passes(Workload& w, bool traced, double budget_s, int fixed) {
  Json out = Json::array();
  const Clock::time_point t0 = Clock::now();
  for (int n = 1;; ++n) {
    // Each pass starts from the same post-setup state (heap, server
    // directories) and reports its own peak RSS.
    const Json p = in_child([&] { return measure_pass(w, traced); });
    const double wall = p.find("wall_s")->as_number();
    out.push(p);
    if (fixed > 0 ? n >= fixed : secs_since(t0) + wall > budget_s) break;
  }
  return out;
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o->workload = value();
    else if (a == "--seed") o->seed = std::stoull(value());
    else if (a == "--seconds") o->seconds = std::stod(value());
    else if (a == "--t0") o->t0 = std::stod(value());
    else if (a == "--jobs") o->jobs = std::stoi(value());
    else if (a == "--passes") o->passes = std::stoi(value());
    else if (a == "--scratch") o->scratch = value();
    else if (a == "--trace") o->trace = true;
    else if (a == "--setup-only") o->setup_only = true;
    else return false;
  }
  return !o->workload.empty();
}

int run(const Options& o) {
  const double start_unix = o.t0 > 0 ? o.t0 : unix_now();
  std::unique_ptr<Workload> w = make_workload(o);
  if (!w) {
    std::fprintf(stderr, "capbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  w->setup();
  Json doc = Json::object();
  doc.set("workload", o.workload);
  doc.set("seed", o.seed);
  doc.set("setup_s", unix_now() - start_unix);
  if (o.setup_only) {
    std::cout << doc.dump() << "\n";
    return 0;
  }
  w->prepare();
  const double rss_setup = rss_now_mb();
  const int fixed = o.trace && o.passes > 0 ? 1 : o.passes;
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  doc.set("passes", run_passes(*w, false, budget, fixed));
  doc.set("rss_setup_mb", rss_setup);
  if (o.trace) {
    Json tj = Json::object();
    tj.set("passes", run_passes(*w, true, budget, fixed));
    Json layers = Json::object();
    isolated_layers(layers, w->probe_config());
    tj.set("layers", std::move(layers));
    doc.set("trace", std::move(tj));
  }
  std::cout << doc.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    if (!parse_args(argc, argv, &o)) {
      std::fprintf(stderr,
                   "usage: capbench_driver --workload W --seed N --seconds S "
                   "[--trace] [--setup-only] [--t0 UNIX_S] [--jobs J] "
                   "[--passes P] [--scratch DIR]\n");
      return 2;
    }
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capbench: %s\n", e.what());
    return 1;
  }
}
