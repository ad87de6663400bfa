// capmem_serve — a crash-safe, backpressured capability-model query daemon.
//
// Speaks one JSON object per line over stdin/stdout (see
// src/serve/protocol.hpp): predict (fitted-model collective predictions),
// simulate (one workload cell), fit (linear regression over supplied
// samples), health. Robustness posture:
//
//   * every request terminates in exactly one reply — result, structured
//     error, or overload shed with a retry-after hint;
//   * results are cached content-addressed under --cache-dir with atomic
//     writes and per-entry checksums, so a kill at any instant leaves a
//     cache that is either valid or detectably corrupt (quarantined and
//     recomputed on restart, never served);
//   * --chaos SEED turns on seed-derived fault injection (worker kills,
//     torn cache writes, delayed replies, optional hard process kill after
//     N cache writes) for the crash/restart tests;
//   * SIGTERM/SIGINT stop intake, drain in-flight work, flush replies and
//     exit 0.
//
// --bench N answers N generated mixed requests twice — cold cache, then
// warm — verifies the two reply streams are byte-identical, and prints a
// one-line capmem.serve_bench.v1 JSON document (cold and warm requests/s)
// to stdout.

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/session.hpp"
#include "serve/daemon.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

void install_signals() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll/read return EINTR and we drain
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Deterministic mixed request batch for --bench: simulate cells across
/// seeds, predictions across collectives/thread counts, regression fits.
std::vector<std::string> bench_requests(int n) {
  using capmem::serve::Json;
  static const char* kCollectives[] = {"broadcast", "reduce", "barrier",
                                       "allreduce"};
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Json r = Json::object();
    r.set("id", i);
    if (i % 3 == 0) {
      r.set("type", "simulate");
      r.set("machine", "tiny_8t");
      r.set("threads", 6);
      r.set("ops", 40);
      r.set("seed", 1000 + i);
    } else if (i % 3 == 1) {
      r.set("type", "predict");
      r.set("machine", "tiny_8t");
      r.set("collective", kCollectives[(i / 3) % 4]);
      r.set("threads", 1 + (i % 16));
    } else {
      r.set("type", "fit");
      Json xs = Json::array(), ys = Json::array();
      for (int k = 0; k < 8; ++k) {
        xs.push(k);
        ys.push(3.0 + 2.0 * k + ((i + k) % 5) * 0.25);
      }
      r.set("xs", std::move(xs));
      r.set("ys", std::move(ys));
    }
    out.push_back(r.dump());
  }
  return out;
}

struct PassResult {
  std::string replies;
  double wall_ms = 0;
  capmem::serve::ServeCounters counters;
};

PassResult run_pass(const capmem::serve::ServerOptions& so,
                    const std::vector<std::string>& requests) {
  PassResult out;
  const auto t0 = std::chrono::steady_clock::now();
  capmem::serve::Server server(so);
  std::ostringstream os;
  for (const std::string& line : requests) server.submit(line);
  server.drain(os);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.replies = os.str();
  out.counters = server.counters();
  return out;
}

int run_bench(const capmem::serve::ServerOptions& base, int n) {
  using capmem::serve::Json;
  capmem::serve::ServerOptions so = base;
  // A fresh subtree so the "cold" pass is actually cold; shedding off so
  // every request computes (throughput is the thing being measured).
  ::mkdir(base.cache_dir.c_str(), 0755);  // parent of the bench subtree
  so.cache_dir = base.cache_dir + "/bench-" + std::to_string(::getpid());
  so.queue_limit = n > 0 ? n : 1;
  const std::vector<std::string> requests = bench_requests(n);

  const PassResult cold = run_pass(so, requests);
  const PassResult warm = run_pass(so, requests);
  const bool identical = cold.replies == warm.replies;

  auto rps = [n](double wall_ms) {
    return wall_ms > 0 ? n * 1000.0 / wall_ms : 0.0;
  };
  Json doc = Json::object();
  doc.set("schema", "capmem.serve_bench.v1");
  doc.set("requests", n);
  doc.set("cold_wall_ms", cold.wall_ms);
  doc.set("cold_rps", rps(cold.wall_ms));
  doc.set("warm_wall_ms", warm.wall_ms);
  doc.set("warm_rps", rps(warm.wall_ms));
  doc.set("warm_cache_hits",
          static_cast<std::uint64_t>(warm.counters.cache_hit));
  doc.set("identical", identical);
  std::cout << doc.dump() << "\n";
  if (!identical) {
    std::fprintf(stderr,
                 "capmem_serve: FAIL — warm-cache replies differ from cold "
                 "recomputation\n");
    return 1;
  }
  std::fprintf(stderr,
               "capmem_serve: bench ok — %d requests, cold %.1f ms, warm "
               "%.1f ms, %llu warm hits\n",
               n, cold.wall_ms, warm.wall_ms,
               static_cast<unsigned long long>(warm.counters.cache_hit));
  return 0;
}

/// Signal-aware stdin line loop: poll with a 100 ms tick so a SIGTERM is
/// noticed between lines, submitting each full line as it arrives.
void serve_stdin(capmem::serve::Server& server, std::ostream& os) {
  std::string buf;
  char chunk[4096];
  while (!g_stop) {
    struct pollfd p {
      0, POLLIN, 0
    };
    const int r = ::poll(&p, 1, 100);
    server.pump(os);
    if (r <= 0) continue;
    const ssize_t k = ::read(0, chunk, sizeof(chunk));
    if (k == 0) break;  // EOF
    if (k < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(k));
    std::size_t pos;
    while ((pos = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, pos);
      buf.erase(0, pos + 1);
      if (!line.empty()) server.submit(line);
      server.pump(os);
    }
  }
  if (!buf.empty() && !g_stop) server.submit(buf);  // unterminated last line
}

}  // namespace

int main(int argc, char** argv) {
  using namespace capmem;
  try {
    Cli cli(argc, argv);
    obs::Session obs(cli, argc, argv);

    serve::ServerOptions so;
    so.cache_dir = cli.get_string("cache-dir", ".capmem_serve_cache",
                                  "persistent result-cache directory");
    so.workers = static_cast<int>(
        cli.get_int("workers", 2, "worker threads for expensive requests"));
    so.queue_limit = static_cast<int>(cli.get_int(
        "queue-limit", 4,
        "max admitted expensive requests before load-shedding"));
    so.default_deadline_ms = cli.get_double(
        "deadline-ms", 30000.0, "default per-request wall-clock deadline");
    so.retry_after_ms = cli.get_double(
        "retry-after-ms", 50.0, "retry hint attached to overload sheds");
    so.default_max_steps = static_cast<std::uint64_t>(cli.get_int(
        "max-steps", 50000000,
        "default engine step budget for simulate requests"));
    so.chaos.seed = static_cast<std::uint64_t>(
        cli.get_int("chaos", 0, "fault-injection seed (0 = chaos off)"));
    so.chaos.kill_worker_prob = cli.get_double(
        "chaos-kill-worker", 0.15, "per-attempt worker-kill probability");
    so.chaos.truncate_prob = cli.get_double(
        "chaos-truncate", 0.15, "torn-cache-write probability");
    so.chaos.delay_prob =
        cli.get_double("chaos-delay", 0.10, "reply-delay probability");
    so.chaos.delay_ms =
        cli.get_double("chaos-delay-ms", 5.0, "injected reply delay");
    so.chaos.kill_after_writes = static_cast<int>(cli.get_int(
        "chaos-kill-writes", 0,
        "_exit(137) after this many cache writes (0 = off)"));
    const std::string req_path = cli.get_string(
        "requests", "", "read requests from this file instead of stdin");
    const std::string rep_path = cli.get_string(
        "replies", "", "write replies to this file instead of stdout");
    const int bench_n = static_cast<int>(cli.get_int(
        "bench", 0, "bench mode: answer N generated requests cold vs warm"));
    cli.finish();

    if (bench_n > 0) return run_bench(so, bench_n);

    install_signals();
    std::ofstream fout;
    std::ostream* outp = &std::cout;
    if (!rep_path.empty()) {
      fout.open(rep_path);
      CAPMEM_CHECK(fout.is_open());
      outp = &fout;
    }

    serve::Server server(so);
    if (!req_path.empty()) {
      std::ifstream fin(req_path);
      CAPMEM_CHECK(fin.is_open());
      std::string line;
      while (!g_stop && std::getline(fin, line)) {
        if (!line.empty()) server.submit(line);
        server.pump(*outp);
      }
    } else {
      serve_stdin(server, *outp);
    }
    if (g_stop) {
      std::fprintf(stderr, "capmem_serve: signal received, draining\n");
    }
    server.drain(*outp);
    server.mirror_metrics(obs.metrics());
    obs.finish();

    const serve::ServeCounters c = server.counters();
    std::fprintf(stderr,
                 "capmem_serve: %llu request(s) — %llu hit, %llu miss "
                 "(%llu corrupt), %llu shed, %llu deadline, %llu retried, "
                 "%llu error(s)\n",
                 static_cast<unsigned long long>(c.requests),
                 static_cast<unsigned long long>(c.cache_hit),
                 static_cast<unsigned long long>(c.cache_miss),
                 static_cast<unsigned long long>(c.cache_corrupt),
                 static_cast<unsigned long long>(c.shed),
                 static_cast<unsigned long long>(c.deadline),
                 static_cast<unsigned long long>(c.retries),
                 static_cast<unsigned long long>(c.errors));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capmem_serve: fatal: %s\n", e.what());
    return 2;
  }
}
