// The capmem_serve request engine: admission, degradation, computation.
//
// A Server turns request lines into reply lines with three invariants the
// chaos/restart tests pin down:
//
//   * no wedged requests: every submitted line terminates in exactly one
//     reply — a result, a structured error, or an overload shed with a
//     retry hint. Deadlines bound queued *and* running requests (running
//     simulations poll the wall clock between engine-step slices and arm
//     the engine watchdog, so a pathological cell cannot hold a worker);
//   * graceful degradation: cheap requests (health, fit, cache hits, and
//     predictions whose capability model is already fitted) are answered
//     inline and keep succeeding when the expensive-admission queue is
//     full; only work that needs simulation time is shed;
//   * determinism through the cache: replies are built from canonical
//     result dumps, stored content-addressed, and spliced back verbatim on
//     hits — a warm-cache reply stream is byte-identical to cold
//     recomputation, which is the test for "the cache never changes
//     answers, only latency".
//
// Replies are delivered in submission order (pump/drain), so interleaving
// under a multi-worker pool never reorders the stream a client sees.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "exec/pool.hpp"
#include "exec/recovery.hpp"
#include "model/params.hpp"
#include "serve/cache.hpp"
#include "serve/chaos.hpp"
#include "serve/protocol.hpp"

namespace capmem::obs {
class Registry;
}  // namespace capmem::obs

namespace capmem::serve {

struct ServerOptions {
  std::string cache_dir;  ///< required: the persistent result cache root
  int workers = 2;        ///< expensive-request pool size
  /// Maximum expensive requests admitted (queued + running) before
  /// load-shedding kicks in; cheap requests are never shed.
  int queue_limit = 4;
  double default_deadline_ms = 30000.0;
  /// Retry hint attached to overload sheds.
  double retry_after_ms = 50.0;
  /// Engine watchdog step budget for simulate requests that do not set
  /// their own max_steps — the "instead of wedged workers" bound.
  std::uint64_t default_max_steps = 50000000;
  /// Transient-failure retry ladder (worker kills, allocation failures).
  exec::RetryPolicy retry{.max_attempts = 3,
                          .backoff_ms = 1.0,
                          .backoff_factor = 4.0,
                          .max_backoff_ms = 50.0,
                          .max_total_backoff_ms = 500.0,
                          .sleep = true};
  ChaosOptions chaos;
};

/// Monotonic counters, mirrored into an obs::Registry on request. The
/// partition invariant: requests == replies delivered (ok + error + shed).
struct ServeCounters {
  std::uint64_t requests = 0;
  std::uint64_t cache_hit = 0;
  std::uint64_t cache_miss = 0;
  std::uint64_t cache_corrupt = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t retries = 0;       ///< extra attempts absorbed by retry
  std::uint64_t backoff_capped = 0;
  std::uint64_t errors = 0;  ///< structured error replies (sheds not incl.)
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();  ///< joins the pool; all in-flight requests finish first

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accepts one request line. Never throws and never blocks on simulation
  /// work: cheap requests are answered before returning; expensive ones
  /// are admitted to the pool or shed. The reply is delivered by
  /// pump/drain in submission order.
  void submit(const std::string& line);

  /// Writes every completed head-of-line reply (one per line). Returns the
  /// number of replies written.
  int pump(std::ostream& os);

  /// Blocks until every submitted request has replied, pumping as replies
  /// complete — the clean-shutdown path (SIGTERM drains, never drops).
  void drain(std::ostream& os);

  ServeCounters counters() const;
  /// Mirrors the counters into `reg` under serve.* gauge names.
  void mirror_metrics(obs::Registry* reg) const;

  ResultCache& cache() { return cache_; }
  const ServerOptions& options() const { return opts_; }
  /// Expensive requests currently admitted (queued + running).
  int queue_depth() const;

 private:
  struct Slot {
    std::string reply;
    bool done = false;
  };
  using Clock = std::chrono::steady_clock;

  void finish(const std::shared_ptr<Slot>& slot, std::string reply);
  void maybe_delay(std::uint64_t seq);

  /// Worker-side: full compute with retry/deadline/chaos; always returns a
  /// reply line.
  std::string process_expensive(const Request& req, std::uint64_t seq,
                                Clock::time_point admitted);
  /// One attempt of the expensive computation; returns the canonical
  /// result dump. Throws ServeError (deadline, sim abort — never retried)
  /// or transient host failures (retried).
  std::string compute_result(const Request& req, std::uint64_t seq,
                             int attempt, Clock::time_point admitted,
                             double deadline_ms);

  std::string predict_result(const Request& req);
  std::string simulate_result(const Request& req, Clock::time_point admitted,
                              double deadline_ms);
  std::string fit_result(const Request& req);
  Json health_result();

  /// The fitted capability model for the request's machine identity,
  /// memoized in memory and persisted through the result cache. Expensive
  /// on first miss (runs the measurement suite).
  const model::CapabilityModel& model_for(const Request& req);
  /// True when predict can be answered without simulation time.
  bool model_warm(const Request& req) const;
  static std::string model_memo_key(const Request& req);
  static std::uint64_t model_cache_key(const Request& req);

  void store_result(const Request& req, std::uint64_t key,
                    const std::string& result_dump, std::uint64_t seq,
                    int attempt);

  ServerOptions opts_;
  ResultCache cache_;
  Chaos chaos_;
  exec::Pool pool_;

  mutable std::mutex out_mu_;
  std::condition_variable out_cv_;
  std::deque<std::shared_ptr<Slot>> out_;  ///< submission-ordered replies

  mutable std::mutex state_mu_;
  ServeCounters counters_;
  std::uint64_t seq_ = 0;       ///< request sequence number (chaos input)
  int inflight_ = 0;            ///< admitted expensive requests
  /// Fitted models by memo key. Entries are never erased, so a reference
  /// handed out stays valid after model_mu_ is released.
  std::map<std::string, model::CapabilityModel> models_;
  /// Guards models_ only, never across a fit: submit() consults it inline
  /// (model_warm) and must not wait behind a fit.
  mutable std::mutex model_mu_;
  std::mutex fit_mu_;  ///< serializes model fits (each uses every worker)

  friend struct ServerTestPeer;  ///< tests hold fit_mu_ to pin a fit open
};

}  // namespace capmem::serve
