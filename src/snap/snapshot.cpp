#include "snap/snapshot.hpp"

#include <bit>
#include <concepts>
#include <cstring>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "common/byte_order.hpp"
#include "common/fnv.hpp"
#include "fault/plan.hpp"
#include "sim/machine.hpp"

namespace capmem::snap {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'P', 'S', 'N', 'A', 'P', '1'};

[[noreturn]] void fail(SnapError::Kind kind, const std::string& msg) {
  std::ostringstream os;
  os << "snapshot " << to_string(kind) << ": " << msg;
  throw SnapError(kind, os.str());
}

// --------------------------------------------------------- byte streams

/// The field types with a fixed wire width: their little-endian bytes.
template <class T>
concept Scalar = std::same_as<T, std::uint8_t> ||
                 std::same_as<T, std::int32_t> ||
                 std::same_as<T, std::uint64_t> ||
                 std::same_as<T, std::int64_t> || std::same_as<T, double>;

// Both sinks of the payload archive share this surface: Writer appends
// the little-endian bytes, common::Fnv1a hashes exactly those bytes.
class Writer {
 public:
  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(v); }
  void f64(double v) { put(v); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  /// Overwrites the u64 written at byte offset `at` (a length placeholder).
  void patch_u64(std::size_t at, std::uint64_t v) {
    common::store_le(out_.data() + at, v);
  }
  std::size_t size() const { return out_.size(); }
  std::vector<std::uint8_t>& buf() { return out_; }

 private:
  template <class T>
  void put(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof v);
    common::store_le(out_.data() + at, v);
  }
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}

  template <class T>
  T get() {
    return common::load_le<T>(raw(1, sizeof(T)));
  }
  std::string str() {
    const std::uint64_t n = get<std::uint64_t>();
    return std::string(reinterpret_cast<const char*>(raw(n, 1)), n);
  }
  /// Validates a count of `n` elements of at least `elem` bytes each
  /// against the bytes remaining, by division so that no count can wrap:
  /// a corrupt count cannot trigger a huge allocation before the
  /// truncation is noticed.
  std::uint64_t len(std::uint64_t n, std::size_t elem = 1) {
    if (n > (n_ - pos_) / elem) {
      fail(SnapError::Kind::kTruncated,
           "need " + std::to_string(n) + " x " + std::to_string(elem) +
               " bytes at offset " + std::to_string(pos_) + " but only " +
               std::to_string(n_ - pos_) + " remain");
    }
    return n;
  }
  /// The next `n` elements of `elem` bytes each, bounds-checked once.
  const std::uint8_t* raw(std::uint64_t n, std::size_t elem) {
    const std::uint8_t* p = p_ + pos_;
    pos_ += len(n, elem) * elem;
    return p;
  }
  std::size_t pos() const { return pos_; }
  bool done() const { return pos_ == n_; }

 private:
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------ the field lists

// Each state struct's wire layout, written once: the payload is its fields
// in this order, recursively. One list serves both constnesses, so the
// encoder, the digest and the decoder cannot disagree. The wire width of
// each field follows from its C++ type (see Out / In).

using namespace capmem::sim::state;
using sim::ThreadCounters;

template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

template <Is<CacheState> S>
auto fields(S& c) { return std::tie(c.clock, c.resident, c.lines, c.stamps); }
template <Is<ReservationState> S>
auto fields(S& r) { return std::tie(r.available, r.busy); }
template <Is<PoolState> S>
auto fields(S& p) {
  return std::tie(p.channels, p.degraded_transfers, p.last_queue_ns,
                  p.last_transfer_at);
}
template <Is<TaskState> S>
auto fields(S& t) { return std::tie(t.clock, t.done); }
template <Is<QueueEntryState> S>
auto fields(S& q) { return std::tie(q.t, q.seq, q.is_callback, q.id); }
template <Is<ParkedWaiterState> S>
auto fields(S& p) { return std::tie(p.key, p.tid, p.parked_at); }
template <Is<EngineState> S>
auto fields(S& e) {
  return std::tie(e.global_time, e.steps, e.queue_seq, e.live, e.rng,
                  e.tasks, e.queue, e.parked, e.sync_q, e.live_callbacks);
}
template <Is<DirEntryState> S>
auto fields(S& d) {
  return std::tie(d.line, d.l2_mask, d.l1_mask, d.owner, d.forward, d.dirty,
                  d.service_available, d.last_write_visible, d.version);
}
template <Is<McdramState> S>
auto fields(S& m) { return std::tie(m.tags); }
template <Is<ThreadCounters> S>
auto fields(S& c) {
  return std::tie(c.l1_hits, c.l2_tile_hits, c.remote_hits, c.dram_lines,
                  c.mcdram_lines, c.mc_cache_hits, c.mc_cache_misses,
                  c.writebacks, c.invalidations, c.line_ops);
}
// The memory system's and the machine's lists take the L1/L2 planes (and
// so the memory system) as parameters: the exported vectors of CacheState,
// or the live caches of a machine (see LiveMachine).
template <class S, class Caches>
auto mem_fields(S& m, Caches& l1, Caches& l2) {
  return std::tie(m.directory, m.mc_cache, m.dram, m.mcdram, l1, l2,
                  m.core_ports, m.l2_supply, m.counters, m.fault_link_retries,
                  m.fault_stuck_hits);
}
template <Is<MemSysState> S>
auto fields(S& m) { return mem_fields(m, m.l1, m.l2); }
template <Is<AllocState> S>
auto fields(S& a) {
  return std::tie(a.base, a.bytes, a.mem_kind, a.domain, a.has_data, a.name,
                  a.data);
}
template <Is<SpaceState> S>
auto fields(S& s) { return std::tie(s.next, s.allocs); }
template <class S, class Mem>
auto machine_fields(S& s, Mem& mem) {
  return std::tie(s.quiescent, s.engine, mem, s.space);
}
template <Is<MachineState> S>
auto fields(S& s) { return machine_fields(s, s.mem); }

/// A machine's state with its live L1/L2 caches in place of the planes:
/// `rest` is export_state without them. It travels as the MachineState
/// capture() would return, so it digests equal without the plane copy.
struct LiveMemSys {
  const MemSysState& rest;
  const std::vector<sim::SetAssocCache>& l1;
  const std::vector<sim::SetAssocCache>& l2;
};
struct LiveMachine {
  const MachineState& rest;
  LiveMemSys mem;
};
template <Is<LiveMemSys> S>
auto fields(S& v) { return mem_fields(v.rest, v.l1, v.l2); }
template <Is<LiveMachine> S>
auto fields(S& v) { return machine_fields(v.rest, v.mem); }

template <class T>
concept Vector = std::same_as<T, std::vector<typename T::value_type>>;
template <class T>
concept Array = std::same_as<
    T, std::array<typename T::value_type, std::tuple_size<T>::value>>;

// ------------------------------------------------------------ archives

// A field's C++ type fixes its wire form: a Scalar is its little-endian
// bytes (u8, i32, u64, i64; f64 for Nanos); a string or vector is a u64
// count then its elements, and a vector of Scalars travels as one raw
// block of its (little-endian) memory; a std::array is its elements alone;
// a struct is its field list.

/// Encodes through a Writer or hashes through a common::Fnv1a.
template <class Sink>
class Out {
 public:
  explicit Out(Sink& sink) : s_(sink) {}

  template <class T>
  void operator()(const T& v) {
    if constexpr (std::same_as<T, double>) {
      s_.f64(v);
    } else if constexpr (Scalar<T> && sizeof(T) == 1) {
      s_.u8(v);
    } else if constexpr (Scalar<T> && sizeof(T) == 4) {
      s_.i32(v);
    } else if constexpr (Scalar<T>) {
      s_.u64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::same_as<T, std::string>) {
      s_.str(v);
    } else if constexpr (Vector<T>) {
      s_.u64(v.size());
      if constexpr (Scalar<typename T::value_type>) {
        s_.raw(v.data(), v.size() * sizeof(typename T::value_type));
      } else {
        for (const auto& e : v) (*this)(e);
      }
    } else if constexpr (Array<T>) {
      for (const auto& e : v) (*this)(e);
    } else if constexpr (std::same_as<T, sim::SetAssocCache>) {
      // A live cache streams as the CacheState it exports (clock, resident,
      // both planes), read in place: the never-touched sets, which hold
      // zeros, are folded as zero runs without being read.
      s_.u64(v.clock());
      s_.u64(v.resident_lines());
      for (const auto plane : {sim::SetAssocCache::Plane::kTags,
                               sim::SetAssocCache::Plane::kStamps}) {
        s_.u64(v.plane_words());
        v.for_each_run(plane, [this](const std::uint64_t* p, std::size_t n) {
          if (p != nullptr) {
            s_.raw(p, n * sizeof(std::uint64_t));
          } else {
            s_.zeros(n * sizeof(std::uint64_t));
          }
        });
      }
    } else {
      std::apply([this](const auto&... f) { ((*this)(f), ...); }, fields(v));
    }
  }

 private:
  Sink& s_;
};

/// Decodes through a Reader; every count is bounds-checked before use.
class In {
 public:
  explicit In(Reader& r) : r_(r) {}

  template <class T>
  void operator()(T& v) {
    if constexpr (Scalar<T>) {
      v = r_.get<T>();
    } else if constexpr (std::same_as<T, std::string>) {
      v = r_.str();
    } else if constexpr (Vector<T>) {
      using E = typename T::value_type;
      const auto n = r_.get<std::uint64_t>();
      if constexpr (Scalar<E>) {
        const std::uint8_t* p = r_.raw(n, sizeof(E));
        v.resize(n);
        if (n != 0) std::memcpy(v.data(), p, n * sizeof(E));
      } else {
        v.resize(r_.len(n));  // each element holds at least one byte
        for (E& e : v) (*this)(e);
      }
    } else if constexpr (Array<T>) {
      for (auto& e : v) (*this)(e);
    } else {
      std::apply([this](auto&... f) { ((*this)(f), ...); }, fields(v));
    }
  }

 private:
  Reader& r_;
};

MachineState decode_payload(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  MachineState s;
  In{r}(s);
  if (!r.done()) {
    fail(SnapError::Kind::kCorrupt,
         "payload has " + std::to_string(n - r.pos()) +
             " trailing bytes after the machine state");
  }
  return s;
}

constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8 + 8 + 8;

}  // namespace

const char* to_string(SnapError::Kind k) {
  switch (k) {
    case SnapError::Kind::kTruncated: return "truncated";
    case SnapError::Kind::kBadMagic: return "bad magic";
    case SnapError::Kind::kVersionMismatch: return "version mismatch";
    case SnapError::Kind::kConfigMismatch: return "config mismatch";
    case SnapError::Kind::kCorrupt: return "corrupt";
  }
  return "?";
}

std::uint64_t config_hash(const sim::MachineConfig& cfg) {
  // i32 fields hash as their sign-extended u64 (i64), as they always have.
  common::Fnv1a h;
  h.str(cfg.name);
  h.i64(static_cast<std::int32_t>(cfg.cluster));
  h.i64(static_cast<std::int32_t>(cfg.memory));
  h.i64(static_cast<std::int32_t>(cfg.protocol));
  h.i64(cfg.mesh_rows);
  h.i64(cfg.mesh_cols);
  h.i64(cfg.physical_tiles);
  h.i64(cfg.active_tiles);
  h.i64(cfg.cores_per_tile);
  h.i64(cfg.threads_per_core);
  h.i64(static_cast<std::int32_t>(cfg.stop_placement));
  h.i64(cfg.opaque_directory ? 1 : 0);
  h.u64(cfg.l1_bytes);
  h.i64(cfg.l1_ways);
  h.u64(cfg.l2_bytes);
  h.i64(cfg.l2_ways);
  h.u64(cfg.dram_bytes);
  h.u64(cfg.mcdram_bytes);
  h.i64(cfg.dram_controllers);
  h.i64(cfg.dram_channels_per_controller);
  h.i64(cfg.mcdram_controllers);
  h.f64(cfg.hybrid_cache_fraction);
  const sim::LatencyParams& L = cfg.lat;
  for (double v : {L.l1_hit, L.l2_tile_m, L.l2_tile_e, L.l2_tile_sf,
                   L.remote_base, L.remote_state_m, L.remote_state_e,
                   L.remote_state_sf, L.hop, L.dram_service,
                   L.mcdram_service, L.mc_cache_tag, L.mc_cache_evict_snoop,
                   L.line_service}) {
    h.f64(v);
  }
  const sim::BandwidthParams& B = cfg.bw;
  for (double v : {B.mlp_mem_vector, B.mlp_mem_scalar, B.mlp_c2c_read_vector,
                   B.mlp_c2c_read_scalar, B.mlp_c2c_copy_vector,
                   B.mlp_c2c_copy_scalar, B.tile_copy_line_e,
                   B.tile_copy_line_m, B.l2_supply_line_ns,
                   B.dram_channel_gbps, B.mcdram_channel_gbps,
                   B.mc_cache_bw_factor, B.write_turnaround,
                   B.channel_queue_lines, B.core_issue_fraction}) {
    h.f64(v);
  }
  h.f64(cfg.noise.service_sigma);
  h.f64(cfg.noise.snc2_extra_sigma);
  h.f64(cfg.noise.spike_prob);
  h.f64(cfg.noise.spike_ns);
  h.i64(cfg.noise.enabled ? 1 : 0);
  h.f64(cfg.tsc_skew_ns);
  h.f64(cfg.tsc_resolution_ns);
  h.u64(cfg.seed);
  // A fault plan changes virtual-time results, so it is identity. The
  // observer hooks and watchdog budgets never do and are excluded.
  if (cfg.fault != nullptr && cfg.fault->enabled()) {
    const fault::FaultPlan& f = *cfg.fault;
    h.u64(f.seed);
    h.i64(f.extra_disabled_tiles);
    h.i64(f.degraded_tiles);
    h.f64(f.link_retry_ns);
    h.i64(f.flaky_dram_channels);
    h.i64(f.flaky_mcdram_channels);
    h.f64(f.channel_rate_factor);
    h.f64(f.stuck_line_fraction);
    h.f64(f.stuck_retry_ns);
  }
  return h.value();
}

std::uint64_t schema_hash() {
  common::Fnv1a h;
  h.str("capmem.snap.machine_state.v1");
  // Struct shapes: any resize of the serialized records perturbs this.
  h.u64(sizeof(sim::state::MachineState));
  h.u64(sizeof(sim::state::EngineState));
  h.u64(sizeof(sim::state::MemSysState));
  h.u64(sizeof(sim::state::SpaceState));
  h.u64(sizeof(sim::state::DirEntryState));
  h.u64(sizeof(sim::state::QueueEntryState));
  return h.value();
}

std::vector<std::uint8_t> encode(const sim::state::MachineState& s,
                                 const sim::MachineConfig& cfg) {
  Writer w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u64(config_hash(cfg));
  w.u64(schema_hash());
  w.u64(s.engine.steps);
  w.f64(s.engine.global_time);
  // Length placeholder, the payload encoded in place, then the length.
  const std::size_t len_at = w.size();
  w.u64(0);
  Out{w}(s);
  w.patch_u64(len_at, w.size() - len_at - 8);
  w.u64(common::fnv1a(w.buf().data(), w.size()));
  return std::move(w.buf());
}

SnapInfo peek(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) {
    fail(SnapError::Kind::kTruncated,
         "header needs " + std::to_string(kHeaderBytes) + " bytes, got " +
             std::to_string(bytes.size()));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    fail(SnapError::Kind::kBadMagic,
         "not a capmem snapshot (expected leading \"CAPSNAP1\")");
  }
  Reader r(bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic));
  SnapInfo info;
  info.version = r.get<std::uint32_t>();
  info.config = r.get<std::uint64_t>();
  info.schema = r.get<std::uint64_t>();
  info.steps = r.get<std::uint64_t>();
  info.virt_ns = r.get<double>();
  info.payload_bytes = r.get<std::uint64_t>();
  if (info.version != kFormatVersion) {
    fail(SnapError::Kind::kVersionMismatch,
         "written as format v" + std::to_string(info.version) +
             " but this binary reads v" + std::to_string(kFormatVersion) +
             " — re-capture the snapshot with the current binary");
  }
  return info;
}

sim::state::MachineState decode(const std::vector<std::uint8_t>& bytes,
                                const sim::MachineConfig& cfg) {
  const SnapInfo info = peek(bytes);
  if (bytes.size() < kHeaderBytes + info.payload_bytes + 8) {
    fail(SnapError::Kind::kTruncated,
         "payload promises " + std::to_string(info.payload_bytes) +
             " bytes but the snapshot holds only " +
             std::to_string(bytes.size() - kHeaderBytes) +
             " past the header (file cut short?)");
  }
  if (bytes.size() != kHeaderBytes + info.payload_bytes + 8) {
    fail(SnapError::Kind::kCorrupt,
         std::to_string(bytes.size() - kHeaderBytes - info.payload_bytes - 8) +
             " trailing bytes after the checksum");
  }
  const auto want =
      common::load_le<std::uint64_t>(bytes.data() + bytes.size() - 8);
  if (common::fnv1a(bytes.data(), bytes.size() - 8) != want) {
    fail(SnapError::Kind::kCorrupt,
         "checksum mismatch (stored vs computed) — the snapshot bytes were "
         "modified after capture");
  }
  if (info.schema != schema_hash()) {
    fail(SnapError::Kind::kVersionMismatch,
         "state-schema hash differs from this binary's — the snapshot was "
         "written by a build with different state structs; re-capture it");
  }
  const std::uint64_t want_cfg = config_hash(cfg);
  if (info.config != want_cfg) {
    std::ostringstream os;
    os << "captured under config hash " << std::hex << info.config
       << " but the target machine hashes " << want_cfg << std::dec
       << " — rebuild the machine from the same preset/cluster/memory/"
          "protocol/seed (and fault plan) the snapshot was taken with";
    fail(SnapError::Kind::kConfigMismatch, os.str());
  }
  sim::state::MachineState s =
      decode_payload(bytes.data() + kHeaderBytes, info.payload_bytes);
  if (s.engine.steps != info.steps ||
      std::bit_cast<std::uint64_t>(s.engine.global_time) !=
          std::bit_cast<std::uint64_t>(info.virt_ns)) {
    fail(SnapError::Kind::kCorrupt,
         "header cursor (steps/virtual time) disagrees with the payload");
  }
  return s;
}

std::uint64_t digest(const sim::state::MachineState& s) {
  // The payload's FNV-1a, streamed through the encoder: no payload buffer.
  common::Fnv1a h;
  Out{h}(s);
  return h.value();
}

std::uint64_t digest(const sim::Machine& m) {
  const MachineState rest = m.export_state(/*with_cache_planes=*/false);
  const sim::MemSystem& mem = m.memsys();
  common::Fnv1a h;
  Out{h}(LiveMachine{rest, {rest.mem, mem.l1_caches(), mem.l2_caches()}});
  return h.value();
}

std::string snapshot_id(const std::vector<std::uint8_t>& bytes) {
  std::ostringstream os;
  os << "snap-" << std::hex;
  os.width(16);
  os.fill('0');
  os << common::fnv1a(bytes.data(), bytes.size());
  return os.str();
}

sim::state::MachineState capture(const sim::Machine& m) {
  return m.export_state();
}

}  // namespace capmem::snap
