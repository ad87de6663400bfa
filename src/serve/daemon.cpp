#include "serve/daemon.hpp"

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <system_error>
#include <thread>

#include "bench/suite.hpp"
#include "check/workload.hpp"
#include "common/linreg.hpp"
#include "model/collective_model.hpp"
#include "model/fit.hpp"
#include "obs/metrics.hpp"
#include "sim/abort.hpp"
#include "snap/snapshot.hpp"

namespace capmem::serve {

namespace {

/// Engine steps a simulate request runs between wall-clock deadline polls.
constexpr std::uint64_t kStepSlice = 50000;

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

Server::Server(const ServerOptions& opts)
    : opts_(opts),
      cache_(opts.cache_dir),
      chaos_(opts.chaos),
      pool_(opts.workers > 0 ? opts.workers : 1) {
  CAPMEM_CHECK(opts_.queue_limit >= 1);
}

Server::~Server() = default;  // Pool joins; pending jobs finish their slots

void Server::submit(const std::string& line) {
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    seq = ++seq_;
    ++counters_.requests;
  }
  auto slot = std::make_shared<Slot>();
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_.push_back(slot);
  }

  Request req;
  try {
    req = parse_request(line);
  } catch (const ServeError& e) {
    // Best-effort id echo so clients can correlate even rejected lines.
    Json id;
    try {
      Json doc = Json::parse(line);
      if (doc.is_object()) {
        if (const Json* i = doc.find("id")) {
          if (i->is_string() || i->is_number()) id = *i;
        }
      }
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++counters_.errors;
    }
    finish(slot, error_reply(id, e.code(), e.what()));
    return;
  }

  if (req.type == RequestType::kHealth) {
    maybe_delay(seq);
    finish(slot, ok_reply(req.id, health_result()));
    return;
  }

  // Content-addressed lookup first: a hit is always the cheap path, and it
  // keeps succeeding when the expensive-admission queue is full.
  const std::uint64_t key = cache_key(req);
  std::string cached, reason;
  if (cache_.lookup(key, &cached, &reason)) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++counters_.cache_hit;
    }
    maybe_delay(seq);
    finish(slot, ok_reply_raw(req.id, cached));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.cache_miss;
    if (!reason.empty()) ++counters_.cache_corrupt;
  }

  if (req.type == RequestType::kFit) {
    const std::string dump = fit_result(req);
    store_result(req, key, dump, seq, 0);
    maybe_delay(seq);
    finish(slot, ok_reply_raw(req.id, dump));
    return;
  }
  if (req.type == RequestType::kPredict && model_warm(req)) {
    std::string dump;
    try {
      dump = predict_result(req);
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        ++counters_.errors;
      }
      finish(slot, error_reply(req.id, ErrorCode::kInternal, e.what()));
      return;
    }
    store_result(req, key, dump, seq, 0);
    maybe_delay(seq);
    finish(slot, ok_reply_raw(req.id, dump));
    return;
  }

  // Expensive: simulate, or predict whose model still needs fitting.
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (inflight_ >= opts_.queue_limit) {
      ++counters_.shed;
      finish(slot, error_reply(req.id, ErrorCode::kOverloaded,
                               "admission queue full",
                               opts_.retry_after_ms));
      return;
    }
    ++inflight_;
  }
  const Clock::time_point admitted = Clock::now();
  pool_.submit([this, req, seq, slot, admitted] {
    std::string reply = process_expensive(req, seq, admitted);
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      --inflight_;
    }
    maybe_delay(seq);
    finish(slot, std::move(reply));
  });
}

std::string Server::process_expensive(const Request& req, std::uint64_t seq,
                                      Clock::time_point admitted) {
  const double deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : opts_.default_deadline_ms;
  int attempt = 0;
  std::string result_dump;
  const exec::RetryOutcome outcome = exec::run_with_retry(
      [&] {
        const int a = ++attempt;
        if (chaos_.roll(seq, a, "kill-worker",
                        chaos_.opts().kill_worker_prob)) {
          throw std::system_error(
              std::make_error_code(std::errc::resource_unavailable_try_again),
              "chaos: worker killed");
        }
        result_dump = compute_result(req, seq, a, admitted, deadline_ms);
      },
      opts_.retry);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (outcome.attempts > 1) {
      counters_.retries += static_cast<std::uint64_t>(outcome.attempts - 1);
    }
    if (outcome.backoff_capped) ++counters_.backoff_capped;
  }
  if (outcome.status == exec::JobStatus::kOk) {
    store_result(req, cache_key(req), result_dump, seq, attempt);
    return ok_reply_raw(req.id, result_dump);
  }
  try {
    std::rethrow_exception(outcome.eptr);
  } catch (const ServeError& e) {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (e.code() == ErrorCode::kDeadlineExceeded) ++counters_.deadline;
    ++counters_.errors;
    return error_reply(req.id, e.code(), e.what());
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.errors;
    const std::string what =
        outcome.backoff_capped
            ? std::string(e.what()) + " (retry wall-time cap reached)"
            : std::string(e.what());
    return error_reply(req.id, ErrorCode::kInternal, what);
  } catch (...) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.errors;
    return error_reply(req.id, ErrorCode::kInternal, "unknown failure");
  }
}

std::string Server::compute_result(const Request& req, std::uint64_t seq,
                                   int attempt, Clock::time_point admitted,
                                   double deadline_ms) {
  (void)seq;
  (void)attempt;
  if (elapsed_ms(admitted) > deadline_ms) {
    throw ServeError(ErrorCode::kDeadlineExceeded,
                     "deadline expired before execution");
  }
  switch (req.type) {
    case RequestType::kPredict: return predict_result(req);
    case RequestType::kSimulate:
      return simulate_result(req, admitted, deadline_ms);
    default: break;
  }
  throw ServeError(ErrorCode::kInternal, "unexpected request type");
}

std::string Server::predict_result(const Request& req) {
  const model::CapabilityModel& m = model_for(req);
  sim::MachineConfig cfg =
      sim::machine_preset(req.machine, req.cluster, req.memory);
  const model::ThreadLayout lay = model::layout_for(
      req.threads, cfg.active_tiles,
      cfg.cores_per_tile * cfg.threads_per_core, req.scatter);
  model::CostBand band;
  if (req.collective == "broadcast") {
    band = model::broadcast_band(m, lay, req.buffer);
  } else if (req.collective == "reduce") {
    band = model::reduce_band(m, lay, req.buffer);
  } else if (req.collective == "barrier") {
    band = model::barrier_band(m, lay, req.buffer);
  } else {
    band = model::allreduce_band(m, lay, req.buffer);
  }
  Json r = Json::object();
  r.set("best_ns", band.best_ns);
  r.set("worst_ns", band.worst_ns);
  r.set("tiles", lay.tiles);
  r.set("threads_per_tile", lay.threads_per_tile);
  return r.dump();
}

std::string Server::simulate_result(const Request& req,
                                    Clock::time_point admitted,
                                    double deadline_ms) {
  check::WorkloadSpec spec;
  spec.threads = req.sim_threads;
  spec.ops_per_thread = req.ops;
  spec.seed = req.seed;
  spec.cluster = req.cluster;
  spec.memory = req.memory;
  spec.protocol = req.protocol;
  spec.machine = req.machine;
  spec.fault_severity = req.fault_severity;
  spec.max_steps =
      req.max_steps > 0 ? req.max_steps : opts_.default_max_steps;

  check::WorkloadRun run(spec, nullptr);
  // Sliced execution: the engine watchdog bounds virtual progress
  // (SimAbort on a runaway schedule), the wall-clock poll between slices
  // bounds host time — either way the worker comes back.
  while (!run.run_until(run.steps() + kStepSlice)) {
    if (elapsed_ms(admitted) > deadline_ms) {
      throw ServeError(ErrorCode::kDeadlineExceeded,
                       "wall-clock deadline exceeded mid-simulation");
    }
  }
  const std::uint64_t steps = run.steps();
  std::uint64_t digest = 0;
  if (!run.errored()) {
    digest = snap::digest(run.machine());
  }
  check::WorkloadResult res = run.take_result();
  if (!res.ran) {
    if (res.aborted && spec.max_steps > 0 && steps >= spec.max_steps) {
      throw ServeError(ErrorCode::kDeadlineExceeded,
                       "engine step budget exceeded: " + res.error);
    }
    throw ServeError(ErrorCode::kSimAbort, res.error);
  }
  const bool consistent = res.expected_data == res.final_data &&
                          res.expected_counter == res.final_counter &&
                          res.expected_slot == res.final_slot;
  Json r = Json::object();
  r.set("elapsed_ns", res.elapsed);
  r.set("steps", static_cast<std::uint64_t>(steps));
  r.set("digest", key_hex(digest));
  r.set("consistent", consistent);
  return r.dump();
}

std::string Server::fit_result(const Request& req) {
  const LinearFit f = fit_linear(req.xs, req.ys);
  Json r = Json::object();
  r.set("alpha", f.alpha);
  r.set("beta", f.beta);
  r.set("r2", f.r2);
  return r.dump();
}

Json Server::health_result() {
  Json r = Json::object();
  const int depth = queue_depth();
  ServeCounters c = counters();
  r.set("status", depth >= opts_.queue_limit ? "degraded" : "ok");
  r.set("queue_depth", depth);
  r.set("queue_limit", opts_.queue_limit);
  r.set("workers", pool_.size());
  Json cj = Json::object();
  cj.set("requests", c.requests);
  cj.set("cache_hit", c.cache_hit);
  cj.set("cache_miss", c.cache_miss);
  cj.set("cache_corrupt", c.cache_corrupt);
  cj.set("shed", c.shed);
  cj.set("deadline", c.deadline);
  cj.set("retries", c.retries);
  cj.set("errors", c.errors);
  r.set("counters", cj);
  return r;
}

std::string Server::model_memo_key(const Request& req) {
  return req.machine + "|" + sim::to_string(req.cluster) + "|" +
         sim::to_string(req.memory) + "|" + sim::to_string(req.protocol);
}

std::uint64_t Server::model_cache_key(const Request& req) {
  // "__model" is not a reachable request type, so model entries can never
  // collide with request results in the shared content-addressed store.
  Request tmp;
  tmp.body = Json::object();
  tmp.body.set("type", "__model");
  tmp.body.set("machine", req.machine);
  tmp.body.set("cluster", std::string(sim::to_string(req.cluster)));
  tmp.body.set("memory", std::string(sim::to_string(req.memory)));
  tmp.body.set("protocol", std::string(sim::to_string(req.protocol)));
  return cache_key(tmp);
}

bool Server::model_warm(const Request& req) const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return models_.find(model_memo_key(req)) != models_.end();
}

const model::CapabilityModel& Server::model_for(const Request& req) {
  const std::string memo = model_memo_key(req);
  const auto fitted = [&]() -> const model::CapabilityModel* {
    std::lock_guard<std::mutex> lock(model_mu_);
    const auto it = models_.find(memo);
    return it != models_.end() ? &it->second : nullptr;
  };
  if (const model::CapabilityModel* m = fitted()) return *m;
  std::lock_guard<std::mutex> fit_lock(fit_mu_);  // one fit at a time
  // Another worker may have fitted it while this one waited.
  if (const model::CapabilityModel* m = fitted()) return *m;

  const std::uint64_t mkey = model_cache_key(req);
  model::CapabilityModel m;
  bool loaded = false;
  std::string text, reason;
  if (cache_.lookup(mkey, &text, &reason)) {
    try {
      std::istringstream is(text);
      m = model::CapabilityModel::load(is);
      loaded = true;
    } catch (const std::exception&) {
      loaded = false;  // undecodable model text: refit and overwrite
    }
  }
  if (!loaded) {
    sim::MachineConfig cfg =
        sim::machine_preset(req.machine, req.cluster, req.memory);
    cfg.protocol = req.protocol;
    bench::SuiteOptions so;
    so.fast = true;
    so.streams = false;
    // Fits are serialized, so one may use the whole worker budget; cells
    // keep their submission slots, so the model is the same at any count.
    so.jobs = pool_.size();
    m = model::fit_cache_model(cfg, so);
    std::ostringstream os;
    m.save(os);
    try {
      cache_.store(mkey, os.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: model cache store failed (degraded): %s\n",
                   e.what());
    }
  }
  std::lock_guard<std::mutex> lock(model_mu_);
  return models_.emplace(memo, std::move(m)).first->second;
}

void Server::store_result(const Request& req, std::uint64_t key,
                          const std::string& result_dump, std::uint64_t seq,
                          int attempt) {
  if (!req.cacheable()) return;
  try {
    if (chaos_.roll(seq, attempt, "truncate",
                    chaos_.opts().truncate_prob)) {
      // The torn image a non-atomic writer killed mid-write would leave:
      // header plus roughly half the payload. The next lookup must reject
      // and quarantine it, never serve it.
      cache_.store_truncated(key, result_dump, 20 + result_dump.size() / 2);
    } else {
      cache_.store(key, result_dump);
    }
  } catch (const std::exception& e) {
    // Cache failure degrades to compute-only service, never to a lost
    // reply.
    std::fprintf(stderr, "serve: cache store failed (degraded): %s\n",
                 e.what());
  }
  if (chaos_.note_cache_write()) {
    std::fflush(nullptr);
    _exit(137);  // chaos hard-kill: the crash the restart test recovers from
  }
}

void Server::finish(const std::shared_ptr<Slot>& slot, std::string reply) {
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    slot->reply = std::move(reply);
    slot->done = true;
  }
  out_cv_.notify_all();
}

void Server::maybe_delay(std::uint64_t seq) {
  if (chaos_.roll(seq, 0, "delay", chaos_.opts().delay_prob)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(chaos_.opts().delay_ms));
  }
}

int Server::pump(std::ostream& os) {
  int n = 0;
  std::lock_guard<std::mutex> lock(out_mu_);
  while (!out_.empty() && out_.front()->done) {
    os << out_.front()->reply << '\n';
    out_.pop_front();
    ++n;
  }
  if (n > 0) os.flush();
  return n;
}

void Server::drain(std::ostream& os) {
  std::unique_lock<std::mutex> lk(out_mu_);
  while (!out_.empty()) {
    out_cv_.wait(lk, [&] { return out_.front()->done; });
    os << out_.front()->reply << '\n';
    out_.pop_front();
  }
  os.flush();
}

ServeCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return counters_;
}

int Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return inflight_;
}

void Server::mirror_metrics(obs::Registry* reg) const {
  if (!reg) return;
  const ServeCounters c = counters();
  reg->set("serve.requests", static_cast<double>(c.requests));
  reg->set("serve.cache.hit", static_cast<double>(c.cache_hit));
  reg->set("serve.cache.miss", static_cast<double>(c.cache_miss));
  reg->set("serve.cache.corrupt", static_cast<double>(c.cache_corrupt));
  reg->set("serve.shed", static_cast<double>(c.shed));
  reg->set("serve.deadline", static_cast<double>(c.deadline));
  reg->set("serve.retries", static_cast<double>(c.retries));
  reg->set("serve.backoff_capped", static_cast<double>(c.backoff_capped));
  reg->set("serve.errors", static_cast<double>(c.errors));
}

}  // namespace capmem::serve
