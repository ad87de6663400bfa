#include "snap/snapshot.hpp"

#include <bit>
#include <cstring>
#include <sstream>

#include "common/fnv.hpp"
#include "common/rng.hpp"
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

// Both sinks of the payload encoders share this surface: Writer appends
// the little-endian bytes, common::Fnv1a hashes exactly those bytes.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
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
    for (int i = 0; i < 8; ++i) out_[at + i] = (v >> (8 * i)) & 0xff;
  }
  std::size_t size() const { return out_.size(); }
  std::vector<std::uint8_t>& buf() { return out_; }

 private:
  void le(std::uint64_t v, int n) {
    std::uint8_t b[8];
    for (int i = 0; i < n; ++i) b[i] = (v >> (8 * i)) & 0xff;
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}

  std::uint8_t u8() {
    need(1);
    return p_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p_[pos_++]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p_[pos_++]} << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = len(u64());
    std::string s(reinterpret_cast<const char*>(p_ + pos_), n);
    pos_ += n;
    return s;
  }
  /// Validates a count field against the bytes actually remaining (each
  /// element needs >= 1 byte), so a corrupt length cannot trigger a huge
  /// allocation before the truncation is noticed.
  std::uint64_t len(std::uint64_t n) {
    need(n);
    return n;
  }
  const std::uint8_t* raw(std::uint64_t n) {
    need(n);
    const std::uint8_t* p = p_ + pos_;
    pos_ += n;
    return p;
  }
  std::size_t pos() const { return pos_; }
  bool done() const { return pos_ == n_; }

 private:
  void need(std::uint64_t n) {
    if (n > n_ - pos_) {
      fail(SnapError::Kind::kTruncated,
           "need " + std::to_string(n) + " bytes at offset " +
               std::to_string(pos_) + " but only " +
               std::to_string(n_ - pos_) + " remain");
    }
  }
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------ payload encoding

using namespace capmem::sim::state;

template <class Sink>
void put(Sink& w, const CacheState& c) {
  w.u64(c.clock);
  w.u64(c.resident);
  w.u64(c.lines.size());
  for (std::uint64_t v : c.lines) w.u64(v);
  w.u64(c.stamps.size());
  for (std::uint64_t v : c.stamps) w.u64(v);
}

CacheState get_cache(Reader& r) {
  CacheState c;
  c.clock = r.u64();
  c.resident = r.u64();
  c.lines.resize(r.len(r.u64()));
  for (auto& v : c.lines) v = r.u64();
  c.stamps.resize(r.len(r.u64()));
  for (auto& v : c.stamps) v = r.u64();
  return c;
}

template <class Sink>
void put(Sink& w, const ReservationState& v) {
  w.f64(v.available);
  w.f64(v.busy);
}

ReservationState get_res(Reader& r) {
  ReservationState v;
  v.available = r.f64();
  v.busy = r.f64();
  return v;
}

template <class Sink>
void put(Sink& w, const PoolState& p) {
  w.u64(p.channels.size());
  for (const ReservationState& c : p.channels) put(w, c);
  w.u64(p.degraded_transfers);
  w.f64(p.last_queue_ns);
  w.f64(p.last_transfer_at);
}

PoolState get_pool(Reader& r) {
  PoolState p;
  p.channels.resize(r.len(r.u64()));
  for (auto& c : p.channels) c = get_res(r);
  p.degraded_transfers = r.u64();
  p.last_queue_ns = r.f64();
  p.last_transfer_at = r.f64();
  return p;
}

template <class Sink>
void put(Sink& w, const EngineState& e) {
  w.f64(e.global_time);
  w.u64(e.steps);
  w.u64(e.queue_seq);
  w.i32(e.live);
  for (std::uint64_t word : e.rng) w.u64(word);
  w.u64(e.tasks.size());
  for (const TaskState& t : e.tasks) {
    w.f64(t.clock);
    w.u8(t.done);
  }
  w.u64(e.queue.size());
  for (const QueueEntryState& q : e.queue) {
    w.f64(q.t);
    w.u64(q.seq);
    w.u8(q.is_callback);
    w.i64(q.id);
  }
  w.u64(e.parked.size());
  for (const ParkedWaiterState& p : e.parked) {
    w.u64(p.key);
    w.i32(p.tid);
    w.f64(p.parked_at);
  }
  w.u64(e.sync_q.size());
  for (std::int32_t tid : e.sync_q) w.i32(tid);
  w.u64(e.live_callbacks);
}

EngineState get_engine(Reader& r) {
  EngineState e;
  e.global_time = r.f64();
  e.steps = r.u64();
  e.queue_seq = r.u64();
  e.live = r.i32();
  for (auto& word : e.rng) word = r.u64();
  e.tasks.resize(r.len(r.u64()));
  for (auto& t : e.tasks) {
    t.clock = r.f64();
    t.done = r.u8();
  }
  e.queue.resize(r.len(r.u64()));
  for (auto& q : e.queue) {
    q.t = r.f64();
    q.seq = r.u64();
    q.is_callback = r.u8();
    q.id = r.i64();
  }
  e.parked.resize(r.len(r.u64()));
  for (auto& p : e.parked) {
    p.key = r.u64();
    p.tid = r.i32();
    p.parked_at = r.f64();
  }
  e.sync_q.resize(r.len(r.u64()));
  for (auto& tid : e.sync_q) tid = r.i32();
  e.live_callbacks = r.u64();
  return e;
}

template <class Sink>
void put(Sink& w, const MemSysState& m) {
  w.u64(m.directory.size());
  for (const DirEntryState& d : m.directory) {
    w.u64(d.line);
    w.u64(d.l2_mask);
    w.u64(d.l1_mask);
    w.i32(d.owner);
    w.i32(d.forward);
    w.u8(d.dirty);
    w.f64(d.service_available);
    w.f64(d.last_write_visible);
    w.u64(d.version);
  }
  w.u64(m.mc_cache.tags.size());
  for (const auto& t : m.mc_cache.tags) {
    w.u64(t[0]);
    w.u64(t[1]);
  }
  put(w, m.dram);
  put(w, m.mcdram);
  w.u64(m.l1.size());
  for (const CacheState& c : m.l1) put(w, c);
  w.u64(m.l2.size());
  for (const CacheState& c : m.l2) put(w, c);
  w.u64(m.core_ports.size());
  for (const ReservationState& v : m.core_ports) put(w, v);
  w.u64(m.l2_supply.size());
  for (const ReservationState& v : m.l2_supply) put(w, v);
  w.u64(m.counters.size());
  for (const CountersState& c : m.counters) {
    for (std::uint64_t v : c.v) w.u64(v);
  }
  w.u64(m.fault_link_retries);
  w.u64(m.fault_stuck_hits);
}

MemSysState get_mem(Reader& r) {
  MemSysState m;
  m.directory.resize(r.len(r.u64()));
  for (auto& d : m.directory) {
    d.line = r.u64();
    d.l2_mask = r.u64();
    d.l1_mask = r.u64();
    d.owner = r.i32();
    d.forward = r.i32();
    d.dirty = r.u8();
    d.service_available = r.f64();
    d.last_write_visible = r.f64();
    d.version = r.u64();
  }
  m.mc_cache.tags.resize(r.len(r.u64()));
  for (auto& t : m.mc_cache.tags) {
    t[0] = r.u64();
    t[1] = r.u64();
  }
  m.dram = get_pool(r);
  m.mcdram = get_pool(r);
  m.l1.resize(r.len(r.u64()));
  for (auto& c : m.l1) c = get_cache(r);
  m.l2.resize(r.len(r.u64()));
  for (auto& c : m.l2) c = get_cache(r);
  m.core_ports.resize(r.len(r.u64()));
  for (auto& v : m.core_ports) v = get_res(r);
  m.l2_supply.resize(r.len(r.u64()));
  for (auto& v : m.l2_supply) v = get_res(r);
  m.counters.resize(r.len(r.u64()));
  for (auto& c : m.counters) {
    for (auto& v : c.v) v = r.u64();
  }
  m.fault_link_retries = r.u64();
  m.fault_stuck_hits = r.u64();
  return m;
}

template <class Sink>
void put(Sink& w, const SpaceState& s) {
  w.u64(s.next);
  w.u64(s.allocs.size());
  for (const AllocState& a : s.allocs) {
    w.u64(a.base);
    w.u64(a.bytes);
    w.u8(a.mem_kind);
    w.i32(a.domain);
    w.u8(a.has_data);
    w.str(a.name);
    w.u64(a.data.size());
    if (!a.data.empty()) w.raw(a.data.data(), a.data.size());
  }
}

SpaceState get_space(Reader& r) {
  SpaceState s;
  s.next = r.u64();
  s.allocs.resize(r.len(r.u64()));
  for (auto& a : s.allocs) {
    a.base = r.u64();
    a.bytes = r.u64();
    a.mem_kind = r.u8();
    a.domain = r.i32();
    a.has_data = r.u8();
    a.name = r.str();
    const std::uint64_t n = r.len(r.u64());
    const std::uint8_t* p = r.raw(n);
    a.data.assign(p, p + n);
  }
  return s;
}

template <class Sink>
void put(Sink& w, const MachineState& s) {
  w.u8(s.quiescent);
  put(w, s.engine);
  put(w, s.mem);
  put(w, s.space);
}

MachineState decode_payload(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  MachineState s;
  s.quiescent = r.u8();
  s.engine = get_engine(r);
  s.mem = get_mem(r);
  s.space = get_space(r);
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
  put(w, s);
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
  info.version = r.u32();
  info.config = r.u64();
  info.schema = r.u64();
  info.steps = r.u64();
  info.virt_ns = r.f64();
  info.payload_bytes = r.u64();
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
  Reader tail(bytes.data() + bytes.size() - 8, 8);
  const std::uint64_t want = tail.u64();
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
  put(h, s);
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

std::unique_ptr<sim::Machine> fork(const sim::state::MachineState& s,
                                   const sim::MachineConfig& cfg,
                                   std::uint64_t fork_seed) {
  auto m = std::make_unique<sim::Machine>(cfg);
  m->install_state(s);
  if (fork_seed != 0) {
    // Perturb the engine RNG with a splitmix64 expansion of the fork seed,
    // so sibling forks draw independent (but per-seed deterministic) noise.
    std::array<std::uint64_t, 4> w = m->engine().rng().state_words();
    perturb_stream(w, fork_seed);
    m->engine().rng().set_state_words(w);
  }
  return m;
}

}  // namespace capmem::snap
