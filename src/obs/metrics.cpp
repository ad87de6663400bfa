#include "obs/metrics.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace capmem::obs {

namespace {

int bucket_index(double v) {
  if (!(v > 0)) return 0;  // non-positive and NaN -> bucket 0
  int e = 0;
  std::frexp(v, &e);  // v = m * 2^e with m in [0.5, 1)
  const int idx = e + Log2Hist::kBias;
  if (idx < 0) return 0;
  if (idx >= Log2Hist::kBuckets) return Log2Hist::kBuckets - 1;
  return idx;
}

// Prints a double as JSON: finite shortest-roundtrip-ish, non-finite as 0.
void append_num(std::string& s, double v) {
  if (!std::isfinite(v)) {
    s += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  s += buf;
}

void append_key(std::string& s, const std::string& name) {
  s += '"';
  for (char c : name) {
    // Instrument names are identifiers; anything exotic is escaped hex-free
    // by replacement so the dump is always valid JSON.
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      s += '_';
    } else {
      s += c;
    }
  }
  s += '"';
}

}  // namespace

void Log2Hist::record(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum += v;
  ++buckets[static_cast<std::size_t>(bucket_index(v))];
}

void Log2Hist::merge(const Log2Hist& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  count += o.count;
  sum += o.sum;
  for (int i = 0; i < kBuckets; ++i) {
    buckets[static_cast<std::size_t>(i)] +=
        o.buckets[static_cast<std::size_t>(i)];
  }
}

double Log2Hist::bucket_le(int i) { return std::ldexp(1.0, i - kBias); }

void Registry::add(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_[name] += delta;
}

void Registry::set(const std::string& name, double v) {
  std::lock_guard<std::mutex> lk(mu_);
  gauges_[name] = v;
}

void Registry::record(const std::string& name, double v) {
  std::lock_guard<std::mutex> lk(mu_);
  hists_[name].record(v);
}

void Registry::merge_hist(const std::string& name, const Log2Hist& h) {
  if (h.count == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  hists_[name].merge(h);
}

double Registry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

bool Registry::has_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.count(name) != 0;
}

double Registry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Log2Hist Registry::hist(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = hists_.find(name);
  return it == hists_.end() ? Log2Hist{} : it->second;
}

bool Registry::empty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.empty() && gauges_.empty() && hists_.empty();
}

void Registry::dump_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string s;
  s.reserve(4096);
  s += "{\n  \"schema\": \"capmem.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    s += first ? "\n    " : ",\n    ";
    first = false;
    append_key(s, name);
    s += ": ";
    append_num(s, v);
  }
  s += first ? "},\n" : "\n  },\n";
  s += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    s += first ? "\n    " : ",\n    ";
    first = false;
    append_key(s, name);
    s += ": ";
    append_num(s, v);
  }
  s += first ? "},\n" : "\n  },\n";
  s += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : hists_) {
    s += first ? "\n    " : ",\n    ";
    first = false;
    append_key(s, name);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ": {\"count\": %llu, \"sum\": ",
                  static_cast<unsigned long long>(h.count));
    s += buf;
    append_num(s, h.sum);
    s += ", \"min\": ";
    append_num(s, h.min);
    s += ", \"max\": ";
    append_num(s, h.max);
    s += ", \"mean\": ";
    append_num(s, h.mean());
    s += ", \"buckets\": [";
    bool bfirst = true;
    for (int i = 0; i < Log2Hist::kBuckets; ++i) {
      const std::uint64_t c = h.buckets[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      if (!bfirst) s += ", ";
      bfirst = false;
      s += "{\"le\": ";
      append_num(s, Log2Hist::bucket_le(i));
      std::snprintf(buf, sizeof(buf), ", \"count\": %llu}",
                    static_cast<unsigned long long>(c));
      s += buf;
    }
    s += "]}";
  }
  s += first ? "}\n" : "\n  }\n";
  s += "}\n";
  os << s;
}

namespace {
std::atomic<Registry*> g_process_registry{nullptr};
}  // namespace

Registry* process_registry() {
  return g_process_registry.load(std::memory_order_acquire);
}

void set_process_registry(Registry* r) {
  g_process_registry.store(r, std::memory_order_release);
}

}  // namespace capmem::obs
