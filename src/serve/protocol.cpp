#include "serve/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <set>

#include "common/atomic_file.hpp"
#include "snap/snapshot.hpp"

namespace capmem::serve {

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kBadJson: return "bad_json";
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kBadConfig: return "bad_config";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kSimAbort: return "sim_abort";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

const char* to_string(RequestType t) {
  switch (t) {
    case RequestType::kPredict: return "predict";
    case RequestType::kSimulate: return "simulate";
    case RequestType::kFit: return "fit";
    case RequestType::kHealth: return "health";
  }
  return "?";
}

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw ServeError(ErrorCode::kInvalidRequest, what);
}

/// Rejects any key outside the whitelist, so typos ("thread" for
/// "threads") fail loudly instead of silently running with a default.
void check_fields(const Json& obj, const std::set<std::string>& allowed) {
  for (const auto& [k, v] : obj.items()) {
    (void)v;
    if (allowed.find(k) == allowed.end()) {
      invalid("unknown field '" + k + "'");
    }
  }
}

std::string get_string(const Json& obj, const std::string& key,
                       const std::string& fallback) {
  const Json* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_string()) invalid("field '" + key + "' must be a string");
  return v->as_string();
}

double get_number(const Json& obj, const std::string& key, double fallback,
                  double lo, double hi) {
  const Json* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_number()) invalid("field '" + key + "' must be a number");
  const double d = v->as_number();
  if (!(d >= lo && d <= hi)) {
    invalid("field '" + key + "' out of range [" + std::to_string(lo) +
            ", " + std::to_string(hi) + "]");
  }
  return d;
}

int get_int(const Json& obj, const std::string& key, int fallback, int lo,
            int hi) {
  const double d = get_number(obj, key, fallback, lo, hi);
  if (d != std::floor(d)) invalid("field '" + key + "' must be an integer");
  return static_cast<int>(d);
}

std::uint64_t get_u64(const Json& obj, const std::string& key,
                      std::uint64_t fallback) {
  // The largest double below 2^64: converting 2^64 itself is undefined.
  const double d = get_number(obj, key, static_cast<double>(fallback), 0,
                              18446744073709549568.0);
  if (d != std::floor(d)) invalid("field '" + key + "' must be an integer");
  return static_cast<std::uint64_t>(d);
}

/// Resolves a config-vocabulary string through a repo factory, remapping
/// its CheckError (which lists the known names) to kBadConfig.
template <typename Fn>
auto resolve(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ServeError&) {
    throw;
  } catch (const CheckError& e) {
    throw ServeError(ErrorCode::kBadConfig, e.what());
  }
}

/// Parses the machine-identity quartet shared by predict and simulate and
/// writes both the resolved enums and the canonical body fields.
void parse_machine(const Json& obj, Request* req) {
  req->machine = get_string(obj, "machine", "knl_38t");
  const std::string cluster = get_string(obj, "cluster", "QUAD");
  const std::string memory = get_string(obj, "memory", "flat");
  const std::string protocol = get_string(obj, "protocol", "mesif");
  req->cluster = resolve([&] { return sim::cluster_mode_from_string(cluster); });
  req->memory = resolve([&] { return sim::memory_mode_from_string(memory); });
  req->protocol = resolve([&] { return sim::parse_protocol(protocol); });
  // Validate the preset name now (cheap: throws before any scheduling).
  resolve([&] { return sim::machine_preset(req->machine); });
  req->body.set("machine", req->machine);
  req->body.set("cluster", std::string(sim::to_string(req->cluster)));
  req->body.set("memory", std::string(sim::to_string(req->memory)));
  req->body.set("protocol", std::string(sim::to_string(req->protocol)));
}

}  // namespace

Request parse_request(const std::string& line) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const JsonError& e) {
    throw ServeError(ErrorCode::kBadJson, e.what());
  }
  if (!doc.is_object()) {
    throw ServeError(ErrorCode::kBadJson, "request must be a JSON object");
  }

  Request req;
  req.body = Json::object();

  if (const Json* id = doc.find("id")) {
    if (!id->is_string() && !id->is_number() && !id->is_null()) {
      invalid("field 'id' must be a string, number, or null");
    }
    req.id = *id;
  }
  req.deadline_ms = get_number(doc, "deadline_ms", 0, 0, 86400000.0);

  const std::string type = get_string(doc, "type", "");
  if (type.empty()) invalid("missing required field 'type'");
  req.body.set("type", type);

  static const std::set<std::string> kCommon = {"id", "type", "deadline_ms"};
  auto with_common = [](std::set<std::string> extra) {
    extra.insert(kCommon.begin(), kCommon.end());
    return extra;
  };

  if (type == "predict") {
    req.type = RequestType::kPredict;
    check_fields(doc, with_common({"machine", "cluster", "memory", "protocol",
                                   "collective", "threads", "schedule",
                                   "buffer"}));
    parse_machine(doc, &req);
    req.collective = get_string(doc, "collective", "broadcast");
    if (req.collective != "broadcast" && req.collective != "reduce" &&
        req.collective != "barrier" && req.collective != "allreduce") {
      invalid("field 'collective' must be one of broadcast | reduce | "
              "barrier | allreduce");
    }
    req.threads = get_int(doc, "threads", 1, 1, 4096);
    const std::string sched = get_string(doc, "schedule", "scatter");
    if (sched != "scatter" && sched != "compact") {
      invalid("field 'schedule' must be 'scatter' or 'compact'");
    }
    req.scatter = sched == "scatter";
    const std::string buffer = get_string(doc, "buffer", "DRAM");
    if (buffer == "DRAM") {
      req.buffer = sim::MemKind::kDDR;
    } else if (buffer == "MCDRAM") {
      req.buffer = sim::MemKind::kMCDRAM;
    } else {
      invalid("field 'buffer' must be 'DRAM' or 'MCDRAM'");
    }
    req.body.set("collective", req.collective);
    req.body.set("threads", req.threads);
    req.body.set("schedule", sched);
    req.body.set("buffer", buffer);
  } else if (type == "simulate") {
    req.type = RequestType::kSimulate;
    check_fields(doc, with_common({"machine", "cluster", "memory", "protocol",
                                   "seed", "threads", "ops",
                                   "fault_severity", "max_steps"}));
    parse_machine(doc, &req);
    req.seed = get_u64(doc, "seed", 1);
    req.sim_threads = get_int(doc, "threads", 8, 1, 256);
    req.ops = get_int(doc, "ops", 64, 1, 100000);
    req.fault_severity = get_int(doc, "fault_severity", 0, 0, 3);
    req.max_steps = get_u64(doc, "max_steps", 0);
    req.body.set("seed", static_cast<std::uint64_t>(req.seed));
    req.body.set("threads", req.sim_threads);
    req.body.set("ops", req.ops);
    req.body.set("fault_severity", req.fault_severity);
    req.body.set("max_steps", static_cast<std::uint64_t>(req.max_steps));
  } else if (type == "fit") {
    req.type = RequestType::kFit;
    check_fields(doc, with_common({"xs", "ys"}));
    auto parse_series = [&](const char* key) {
      const Json* arr = doc.find(key);
      if (!arr || !arr->is_array()) {
        invalid(std::string("field '") + key + "' must be a number array");
      }
      std::vector<double> out;
      out.reserve(arr->elements().size());
      for (const Json& v : arr->elements()) {
        // An overflowing literal such as 1e999 parses to infinity, which
        // the canonical body could only dump as null.
        if (!v.is_number() || !std::isfinite(v.as_number())) {
          invalid(std::string("field '") + key +
                  "' must contain only finite numbers");
        }
        out.push_back(v.as_number());
      }
      return out;
    };
    req.xs = parse_series("xs");
    req.ys = parse_series("ys");
    if (req.xs.size() != req.ys.size()) {
      invalid("'xs' and 'ys' must have the same length");
    }
    if (req.xs.size() < 2) invalid("need at least 2 samples to fit");
    if (req.xs.size() > 100000) invalid("too many samples (max 100000)");
    Json xs = Json::array(), ys = Json::array();
    for (double v : req.xs) xs.push(v);
    for (double v : req.ys) ys.push(v);
    req.body.set("xs", std::move(xs));
    req.body.set("ys", std::move(ys));
  } else if (type == "health") {
    req.type = RequestType::kHealth;
    check_fields(doc, with_common({}));
  } else {
    invalid("unknown request type '" + type +
            "' (predict | simulate | fit | health)");
  }
  return req;
}

std::uint64_t cache_key(const Request& req) {
  const std::string canon = req.body.dump();
  std::uint64_t h = common::fnv1a(&kServeFormatVersion,
                                  sizeof(kServeFormatVersion));
  const std::uint64_t schema = snap::schema_hash();
  h = common::fnv1a(&schema, sizeof(schema), h);
  return common::fnv1a(canon.data(), canon.size(), h);
}

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

std::string ok_reply(const Json& id, const Json& result) {
  return ok_reply_raw(id, result.dump());
}

std::string ok_reply_raw(const Json& id, const std::string& result_dump) {
  // Field order is fixed by hand (id, ok, result) rather than through
  // Json::dump so the cached result string can be spliced in verbatim.
  std::string out = "{\"id\":";
  out += id.dump();
  out += ",\"ok\":true,\"result\":";
  out += result_dump;
  out += "}";
  return out;
}

std::string error_reply(const Json& id, ErrorCode code,
                        const std::string& message, double retry_after_ms) {
  Json err = Json::object();
  err.set("code", std::string(to_string(code)));
  err.set("message", message);
  if (retry_after_ms > 0) err.set("retry_after_ms", retry_after_ms);
  std::string out = "{\"id\":";
  out += id.dump();
  out += ",\"ok\":false,\"error\":";
  out += err.dump();
  out += "}";
  return out;
}

}  // namespace capmem::serve
