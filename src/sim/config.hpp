// Machine configuration for the simulated KNL.
//
// The struct below is the simulator's microarchitectural ground truth. The
// calibration constants are set so that the *measured* medians of the
// benchmark layer land near the paper's Tables I and II for the KNL 7210.
// Everything above the simulator (bench/, model/, coll/, sort/) treats these
// numbers as unknown: it only observes timed memory operations, which is what
// makes the measure->fit->optimize pipeline a faithful reproduction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/abort.hpp"
#include "sim/protocol.hpp"

namespace capmem::obs {
class TraceSink;
class Registry;
}  // namespace capmem::obs

namespace capmem::obs::attr {
class Sink;
}  // namespace capmem::obs::attr

namespace capmem::fault {
struct FaultPlan;
}  // namespace capmem::fault

namespace capmem::sim {

class Observer;

/// KNL cluster (NUMA-exposure) modes, paper §II.D.
enum class ClusterMode { kA2A, kHemisphere, kQuadrant, kSNC2, kSNC4 };

/// KNL near-memory (MCDRAM) modes, paper §II.C.
enum class MemoryMode { kFlat, kCache, kHybrid };

/// Physical memory technologies.
enum class MemKind { kDDR, kMCDRAM };

/// Where the machine factory places the IMC/EDC mesh stops.
///  - kEdges: KNL's floorplan — IMCs mid-height on the left/right die
///    edges, EDCs in the corners (paper Fig. 2b).
///  - kSpread: stops distributed evenly along the top/bottom rows, for
///    synthetic machines whose meshes are too wide or too flat for the
///    corner layout to make sense.
enum class StopPlacement { kEdges, kSpread };

/// The directory's sharer mask (LineEntry::l2_mask) and a snapshot's L1
/// presence mask (state::DirEntryState::l1_mask) are single 64-bit words,
/// capping both active tiles and cores at 64. MachineConfig::validate
/// rejects shapes beyond it; coherence.hpp static_asserts the mask width.
inline constexpr int kMaxCoherenceTiles = 64;

const char* to_string(ClusterMode m);
const char* to_string(MemoryMode m);
const char* to_string(MemKind k);
ClusterMode cluster_mode_from_string(const std::string& s);
MemoryMode memory_mode_from_string(const std::string& s);

/// All five cluster modes, in the column order of the paper's tables
/// (SNC4, SNC2, QUAD, HEM, A2A).
std::vector<ClusterMode> all_cluster_modes();

/// Latency ground truth, in nanoseconds. Comments give the Table I/II cell
/// each constant is calibrated against (the measured value also includes
/// path/hop terms, so these are components, not the medians themselves).
struct LatencyParams {
  double l1_hit = 3.8;        ///< Table I "Local (L1)" 3.8 ns
  double l2_tile_m = 34.0;    ///< Table I "Tile (L2)" M state, 34 ns
  double l2_tile_e = 18.0;    ///< Table I E state, 17-18 ns
  double l2_tile_sf = 14.0;   ///< Table I S/F state, 14 ns

  /// Remote cache-to-cache transfer: fixed cost excluding mesh hops.
  /// Measured remote medians (96-125 ns) = base + state adder + hop * hops.
  double remote_base = 99.0;
  double remote_state_m = 8.0;   ///< M: snoop + downgrade/write-back
  double remote_state_e = 4.0;   ///< E: clean owner forward
  double remote_state_sf = 0.0;  ///< S/F: forwarder reply
  double hop = 1.05;             ///< per mesh hop (Y-then-X Manhattan)

  /// Memory service beyond the directory path. Flat-mode measured medians:
  /// DRAM 130-146 ns, MCDRAM 160-175 ns (MCDRAM trades latency for BW).
  double dram_service = 127.0;
  double mcdram_service = 155.0;

  /// Cache mode: memory-side MCDRAM cache tag check, added to every memory
  /// access; misses then pay the DRAM path. Measured cache-mode latency
  /// median 158-178 ns.
  double mc_cache_tag = 16.0;
  /// Snoop-before-evict of a modified L2 copy (paper §II.C cache mode).
  double mc_cache_evict_snoop = 30.0;

  /// CHA serialization per request on one line; yields the contention law
  /// T_C(N) = alpha + beta*N with beta ~= 34 ns (Table I). The raw service
  /// exceeds beta because intra-tile sharing lets ~half the requesters
  /// bypass the directory under the paper's fill-cores schedule.
  double line_service = 64.0;
};

/// Bandwidth / pipelining ground truth. Streaming ops are modeled as
/// pipelined line transfers: the per-line thread-issue occupancy is
/// latency / mlp, and shared resources (per-core issue port, memory
/// channels) impose reservation delays on top.
struct BandwidthParams {
  /// Memory-level parallelism (lines in flight) for streaming memory ops.
  /// Per-stream thread bandwidth = 64 B * mlp / latency; DRAM ~5.5 GB/s and
  /// MCDRAM ~6 GB/s per stream, so DRAM saturates with ~16 cores and MCDRAM
  /// needs all 64 (paper §V.A, Fig. 9).
  double mlp_mem_vector = 16.0;
  double mlp_mem_scalar = 4.0;

  /// Remote cache-to-cache streaming (Table I): single-thread read
  /// 2.5 GB/s vector (1 GB/s scalar), copy ~7.5 GB/s vector (~6 scalar).
  double mlp_c2c_read_vector = 3.9;
  double mlp_c2c_read_scalar = 1.55;
  double mlp_c2c_copy_vector = 16.0;
  double mlp_c2c_copy_scalar = 11.8;

  /// Intra-tile L2 streaming per-line costs (ns/line): copy from E 7.0
  /// (9.2 GB/s), from M 8.5 (7.5 GB/s, extra write-back), L1-resident 6.0.
  double tile_copy_line_e = 6.5;
  double tile_copy_line_m = 8.0;
  /// Per-tile L2 *supply* occupancy for cache-to-cache transfers (ns per
  /// line served to remote requesters). Caps what one tile can source when
  /// many readers pull from it (~9 GB/s aggregate) — the reason flat
  /// everyone-pulls-from-root broadcasts collapse at large payloads.
  double l2_supply_line_ns = 7.0;

  /// Channel rates. 6 DDR4 channels (2 IMCs x 3): 90 GB/s peak, ~85%
  /// effective => Table II STREAM copy/triad 77-82 GB/s aggregate.
  double dram_channel_gbps = 12.8;
  /// 8 MCDRAM EDCs: 400-500 GB/s raw peak; the effective per-EDC rate is
  /// chosen so the randomized-NT medians land at the paper's Table II
  /// medians (copy/triad 330-340 GB/s; write ~171 with the turnaround).
  double mcdram_channel_gbps = 44.0;
  /// Cache-mode efficiency on MCDRAM-cache hits (tag check + memory-side
  /// buffering): Table II cache-mode copy 130-175 vs flat 306-342 GB/s.
  double mc_cache_bw_factor = 0.65;
  /// Extra channel occupancy of pure store streams (DDR/MCDRAM write
  /// turnaround): Table II write ~= read/2 on both memories. Mixed
  /// read+write streams (copy/triad) amortize the turnaround away.
  double write_turnaround = 2.0;
  /// Memory-controller queue depth per channel, as lines of lead a
  /// requester may buffer before the channel exerts backpressure. Models
  /// the controller absorbing short bursts so saturated channels run at
  /// ~100% utilization instead of convoying.
  double channel_queue_lines = 64.0;
  /// Per-core issue occupancy per line of a streaming op, as a fraction of
  /// the per-line issue cost; 4 HW threads share one core's ports, which is
  /// why compact schedules need 4x the threads (Fig. 9a vs 9b).
  double core_issue_fraction = 1.0;
};

/// Deterministic measurement-noise model (real hardware has spread; the
/// paper reports medians/CIs/boxplots, so the simulator provides a seeded,
/// reproducible jitter).
struct NoiseParams {
  double service_sigma = 0.03;   ///< lognormal sigma on service times
  double snc2_extra_sigma = 0.06;///< SNC2 is "experimental", higher variance
  double spike_prob = 0.002;     ///< rare directory-retry spikes
  double spike_ns = 250.0;
  bool enabled = true;
};

/// Full machine description.
struct MachineConfig {
  std::string name = "knl7210";
  ClusterMode cluster = ClusterMode::kQuadrant;
  MemoryMode memory = MemoryMode::kFlat;
  /// Directory coherence protocol the memory system runs. The transition
  /// pipeline is instantiated per protocol at MemSystem construction
  /// (sim/protocol.hpp); MESIF is the calibrated KNL default.
  Protocol protocol = Protocol::kMesif;

  // --- topology ---
  int mesh_rows = 6;
  int mesh_cols = 7;
  int physical_tiles = 38;   ///< tile slots on the mesh (rest are IMC/IO)
  int active_tiles = 32;     ///< 7210: 64 cores = 32 tiles enabled
  int cores_per_tile = 2;
  int threads_per_core = 4;
  /// IMC/EDC mesh-stop layout (machine factory knob).
  StopPlacement stop_placement = StopPlacement::kEdges;
  /// Opaque directory (Kommrusch et al.): home CHAs hash over *all* active
  /// tiles regardless of cluster mode, hiding the domain affinity the
  /// cluster modes normally give the directory.
  bool opaque_directory = false;

  // --- caches ---
  std::uint64_t l1_bytes = 32 * 1024;  ///< per core, 8-way
  int l1_ways = 8;
  std::uint64_t l2_bytes = 1024 * 1024;  ///< per tile, 16-way
  int l2_ways = 16;

  // --- memory ---
  std::uint64_t dram_bytes = GiB(96);
  std::uint64_t mcdram_bytes = GiB(16);
  int dram_controllers = 2;
  int dram_channels_per_controller = 3;
  int mcdram_controllers = 8;  ///< EDCs
  /// Hybrid mode: fraction of MCDRAM used as cache (paper: 1/4 or 1/2).
  double hybrid_cache_fraction = 0.5;

  LatencyParams lat;
  BandwidthParams bw;
  NoiseParams noise;

  /// Maximum TSC skew across cores (the paper calibrates it away; we model
  /// it so the window-sync machinery is exercised).
  double tsc_skew_ns = 80.0;
  /// TSC read resolution (paper: 10 ns).
  double tsc_resolution_ns = 10.0;

  std::uint64_t seed = 42;

  // --- observers (non-owning, not part of machine identity) ---
  // When any of these is set, a Machine built from this config builds one
  // Fanout (sim/fanout.hpp) on the simulator's observer seam, which feeds
  // each of them. All are null by default and pure: any subset leaves
  // virtual-time results and snapshot bytes unchanged, and detached costs
  // one branch per event site.
  /// Trace sink for the virtual-time events.
  obs::TraceSink* trace = nullptr;
  /// Registry for the end-of-run component metrics.
  obs::Registry* metrics = nullptr;
  /// Validation observer (capmem::check::Checker): receives every event.
  Observer* check = nullptr;
  /// Attribution aggregator (capmem::obs::attr): each run's Ledger, which
  /// charges every simulated nanosecond to a (category, tile) cell and every
  /// message to a traffic counter, is merged here at the end of run() —
  /// where the exact conservation invariant (sum of cells == sum of task
  /// lifetimes, in integer picosecond ticks) is enforced.
  obs::attr::Sink* attr = nullptr;
  /// Fault-injection plan (capmem::fault): deterministic degraded-silicon
  /// penalties on mesh paths, channels and directory lines. Unlike the
  /// observer hooks it *does* change virtual-time results when attached —
  /// that is its purpose — but null (the default) is byte-identical to the
  /// pre-fault simulator. Borrowed pointer: the plan must outlive the
  /// Machine.
  const fault::FaultPlan* fault = nullptr;

  /// Engine watchdog budgets (see sim/abort.hpp). All-zero (the default)
  /// disarms the watchdog entirely.
  WatchdogBudget watchdog;

  int cores() const { return active_tiles * cores_per_tile; }
  int hw_threads() const { return cores() * threads_per_core; }
  int dram_channels() const {
    return dram_controllers * dram_channels_per_controller;
  }
  int cluster_domains() const;

  /// Scales both memory capacities (and thus the MCDRAM cache tag array) by
  /// 1/factor so cache-mode experiments with realistic footprint/capacity
  /// ratios stay within host memory. Bandwidths/latencies are unaffected.
  void scale_memory(std::uint64_t factor);

  /// Validates internal consistency; throws CheckError on bad configs.
  void validate() const;
};

/// Preset matching the paper's evaluation platform: Xeon Phi 7210, 64 cores
/// at 1.30 GHz, 16 GB MCDRAM, 96 GB DDR4-2133.
MachineConfig knl7210(ClusterMode cluster = ClusterMode::kQuadrant,
                      MemoryMode memory = MemoryMode::kFlat);

/// Small machine for unit tests (4x3 mesh, 8 tiles, scaled memory).
MachineConfig tiny_machine(ClusterMode cluster = ClusterMode::kQuadrant,
                           MemoryMode memory = MemoryMode::kFlat);

/// Machine factory: named presets spanning the synthetic-machine family the
/// methodology is exercised on (à la Graphite's string-keyed factories).
///   knl_38t / knl7210 — the paper's Xeon Phi 7210 (the calibrated default)
///   tiny_8t  / tiny   — the unit-test machine above
///   mini_16t — 4x5 mesh, 16 tiles / 32 cores, slow narrow DDR
///   tall_24t — 8x4 mesh, 24 tiles / 48 cores, long skinny die
///   wide_64t — 4x17 mesh, 64 single-core tiles, the coherence-mask limit
/// Throws CheckError (listing the known names) for anything else.
MachineConfig machine_preset(const std::string& name,
                             ClusterMode cluster = ClusterMode::kQuadrant,
                             MemoryMode memory = MemoryMode::kFlat);

/// Canonical preset names accepted by machine_preset, default first.
std::vector<std::string> machine_preset_names();

}  // namespace capmem::sim
