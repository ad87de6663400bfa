#include "model/params.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace capmem::model {

double CapabilityModel::t_contention(int n) const {
  const double t = contention(n);
  return t > r_remote ? t : r_remote;
}

void CapabilityModel::save(std::ostream& os) const {
  // One "key value" pair per line; load() takes the value to the line end.
  CAPMEM_CHECK_MSG(machine.find('\n') == std::string::npos,
                   "model machine name contains a newline");
  os.precision(17);  // lossless double round-trip
  os << "machine " << machine << '\n';
  os << "cluster " << sim::to_string(cluster) << '\n';
  os << "memory " << sim::to_string(memory) << '\n';
  auto kv = [&os](const char* k, double v) { os << k << ' ' << v << '\n'; };
  kv("r_local", r_local);
  kv("r_l2", r_l2);
  kv("r_tile", r_tile);
  kv("r_remote", r_remote);
  kv("r_mem_dram", r_mem_dram);
  kv("r_mem_mcdram", r_mem_mcdram);
  kv("contention_alpha", contention.alpha);
  kv("contention_beta", contention.beta);
  kv("contention_r2", contention.r2);
  kv("c2c_copy_gbps", c2c_copy_gbps);
  kv("multiline_alpha", multiline.alpha);
  kv("multiline_beta", multiline.beta);
  kv("multiline_r2", multiline.r2);
  kv("lat_dram", lat_dram);
  kv("lat_mcdram", lat_mcdram);
  kv("bw_dram_thread", bw_dram.per_thread_gbps);
  kv("bw_dram_agg", bw_dram.aggregate_gbps);
  kv("bw_mcdram_thread", bw_mcdram.per_thread_gbps);
  kv("bw_mcdram_agg", bw_mcdram.aggregate_gbps);
  kv("has_mcdram", has_mcdram ? 1 : 0);
}

CapabilityModel CapabilityModel::load(std::istream& is) {
  // One pair per line: the key up to the first space, the value the rest of
  // the line (a machine name may be empty or contain spaces).
  std::map<std::string, std::string> kv;
  for (std::string line; std::getline(is, line);) {
    const std::size_t sp = line.find(' ');
    kv[line.substr(0, sp)] =
        sp == std::string::npos ? std::string() : line.substr(sp + 1);
  }
  auto value = [&kv](const char* k) -> const std::string& {
    const auto it = kv.find(k);
    CAPMEM_CHECK_MSG(it != kv.end(), "missing model key '" << k << "'");
    return it->second;
  };
  // A value is one whole finite number; anything else names its key.
  auto num = [&value](const char* k) {
    const std::string& v = value(k);
    const char* const last = v.data() + v.size();
    double x = 0;
    const std::from_chars_result r = std::from_chars(v.data(), last, x);
    CAPMEM_CHECK_MSG(r.ec != std::errc::invalid_argument,
                     "model key '" << k << "': unparsable value '" << v
                                   << "'");
    CAPMEM_CHECK_MSG(r.ec != std::errc::result_out_of_range,
                     "model key '" << k << "': value '" << v
                                   << "' out of range");
    CAPMEM_CHECK_MSG(r.ptr == last, "model key '" << k
                                                  << "': trailing characters"
                                                  << " in '" << v << "'");
    CAPMEM_CHECK_MSG(std::isfinite(x),
                     "model key '" << k << "': non-finite value '" << v
                                   << "'");
    return x;
  };
  CapabilityModel m;
  m.machine = kv.count("machine") ? kv["machine"] : "unknown";
  m.cluster = sim::cluster_mode_from_string(value("cluster"));
  m.memory = sim::memory_mode_from_string(value("memory"));
  m.r_local = num("r_local");
  m.r_l2 = num("r_l2");
  m.r_tile = num("r_tile");
  m.r_remote = num("r_remote");
  m.r_mem_dram = num("r_mem_dram");
  m.r_mem_mcdram = num("r_mem_mcdram");
  m.contention.alpha = num("contention_alpha");
  m.contention.beta = num("contention_beta");
  m.contention.r2 = num("contention_r2");
  m.c2c_copy_gbps = num("c2c_copy_gbps");
  m.multiline.alpha = num("multiline_alpha");
  m.multiline.beta = num("multiline_beta");
  m.multiline.r2 = num("multiline_r2");
  m.lat_dram = num("lat_dram");
  m.lat_mcdram = num("lat_mcdram");
  m.bw_dram.per_thread_gbps = num("bw_dram_thread");
  m.bw_dram.aggregate_gbps = num("bw_dram_agg");
  m.bw_mcdram.per_thread_gbps = num("bw_mcdram_thread");
  m.bw_mcdram.aggregate_gbps = num("bw_mcdram_agg");
  m.has_mcdram = num("has_mcdram") != 0;
  return m;
}

namespace {
bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a) + std::abs(b));
}
}  // namespace

bool operator==(const CapabilityModel& a, const CapabilityModel& b) {
  return a.machine == b.machine && a.cluster == b.cluster &&
         a.memory == b.memory && close(a.r_local, b.r_local) &&
         close(a.r_l2, b.r_l2) &&
         close(a.r_tile, b.r_tile) && close(a.r_remote, b.r_remote) &&
         close(a.r_mem_dram, b.r_mem_dram) &&
         close(a.r_mem_mcdram, b.r_mem_mcdram) &&
         close(a.contention.alpha, b.contention.alpha) &&
         close(a.contention.beta, b.contention.beta) &&
         close(a.c2c_copy_gbps, b.c2c_copy_gbps) &&
         close(a.multiline.alpha, b.multiline.alpha) &&
         close(a.multiline.beta, b.multiline.beta) &&
         close(a.lat_dram, b.lat_dram) && close(a.lat_mcdram, b.lat_mcdram) &&
         close(a.bw_dram.per_thread_gbps, b.bw_dram.per_thread_gbps) &&
         close(a.bw_dram.aggregate_gbps, b.bw_dram.aggregate_gbps) &&
         close(a.bw_mcdram.per_thread_gbps, b.bw_mcdram.per_thread_gbps) &&
         close(a.bw_mcdram.aggregate_gbps, b.bw_mcdram.aggregate_gbps) &&
         a.has_mcdram == b.has_mcdram;
}

}  // namespace capmem::model
