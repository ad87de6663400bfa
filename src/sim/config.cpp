#include "sim/config.hpp"

#include "common/check.hpp"

namespace capmem::sim {

const char* to_string(ClusterMode m) {
  switch (m) {
    case ClusterMode::kA2A: return "A2A";
    case ClusterMode::kHemisphere: return "HEM";
    case ClusterMode::kQuadrant: return "QUAD";
    case ClusterMode::kSNC2: return "SNC2";
    case ClusterMode::kSNC4: return "SNC4";
  }
  return "?";
}

const char* to_string(MemoryMode m) {
  switch (m) {
    case MemoryMode::kFlat: return "flat";
    case MemoryMode::kCache: return "cache";
    case MemoryMode::kHybrid: return "hybrid";
  }
  return "?";
}

const char* to_string(MemKind k) {
  return k == MemKind::kDDR ? "DRAM" : "MCDRAM";
}

ClusterMode cluster_mode_from_string(const std::string& s) {
  for (ClusterMode m : all_cluster_modes())
    if (s == to_string(m)) return m;
  CAPMEM_CHECK_MSG(false, "unknown cluster mode '" << s << "'");
}

MemoryMode memory_mode_from_string(const std::string& s) {
  if (s == "flat") return MemoryMode::kFlat;
  if (s == "cache") return MemoryMode::kCache;
  if (s == "hybrid") return MemoryMode::kHybrid;
  CAPMEM_CHECK_MSG(false, "unknown memory mode '" << s << "'");
}

std::vector<ClusterMode> all_cluster_modes() {
  return {ClusterMode::kSNC4, ClusterMode::kSNC2, ClusterMode::kQuadrant,
          ClusterMode::kHemisphere, ClusterMode::kA2A};
}

int MachineConfig::cluster_domains() const {
  switch (cluster) {
    case ClusterMode::kSNC4: return 4;
    case ClusterMode::kSNC2: return 2;
    default: return 1;  // transparent modes expose one NUMA domain
  }
}

void MachineConfig::scale_memory(std::uint64_t factor) {
  CAPMEM_CHECK(factor > 0);
  dram_bytes /= factor;
  mcdram_bytes /= factor;
  CAPMEM_CHECK(dram_bytes >= MiB(1) && mcdram_bytes >= MiB(1));
}

void MachineConfig::validate() const {
  CAPMEM_CHECK_MSG(mesh_rows > 0 && mesh_cols > 0,
                   "machine '" << name << "': mesh is " << mesh_rows << "x"
                               << mesh_cols
                               << "; both dimensions must be positive");
  CAPMEM_CHECK_MSG(physical_tiles > 0 &&
                       physical_tiles <= mesh_rows * mesh_cols,
                   "machine '" << name << "': physical_tiles="
                               << physical_tiles << " does not fit the "
                               << mesh_rows << "x" << mesh_cols << " mesh ("
                               << mesh_rows * mesh_cols << " slots)");
  CAPMEM_CHECK_MSG(active_tiles > 0 && active_tiles <= physical_tiles,
                   "machine '" << name << "': active_tiles=" << active_tiles
                               << " must be in 1.." << physical_tiles
                               << " (physical_tiles)");
  CAPMEM_CHECK_MSG(active_tiles <= kMaxCoherenceTiles,
                   "machine '" << name << "': active_tiles=" << active_tiles
                               << " exceeds the " << kMaxCoherenceTiles
                               << "-tile limit of the 64-bit l2_mask "
                                  "coherence bitmap (coherence.hpp)");
  CAPMEM_CHECK_MSG(cores_per_tile > 0 && threads_per_core > 0,
                   "machine '" << name << "': cores_per_tile and "
                                          "threads_per_core must be positive");
  CAPMEM_CHECK_MSG(cores() <= 64,
                   "machine '" << name << "': " << cores()
                               << " cores exceed the 64-bit L1 presence "
                                  "mask of a snapshot; it caps "
                                  "active_tiles*cores_per_tile at 64");
  CAPMEM_CHECK_MSG(
      l1_bytes % (kLineBytes * static_cast<std::uint64_t>(l1_ways)) == 0,
      "machine '" << name << "': l1_bytes=" << l1_bytes
                  << " is not a multiple of line*ways = "
                  << kLineBytes * static_cast<std::uint64_t>(l1_ways));
  CAPMEM_CHECK_MSG(
      l2_bytes % (kLineBytes * static_cast<std::uint64_t>(l2_ways)) == 0,
      "machine '" << name << "': l2_bytes=" << l2_bytes
                  << " is not a multiple of line*ways = "
                  << kLineBytes * static_cast<std::uint64_t>(l2_ways));
  CAPMEM_CHECK_MSG(dram_controllers > 0 && dram_channels_per_controller > 0,
                   "machine '" << name
                               << "': needs at least one DDR controller "
                                  "with at least one channel (got "
                               << dram_controllers << " IMC x "
                               << dram_channels_per_controller << " ch)");
  CAPMEM_CHECK_MSG(mcdram_controllers > 0,
                   "machine '" << name
                               << "': needs at least one MCDRAM EDC");
  CAPMEM_CHECK_MSG(hybrid_cache_fraction > 0.0 && hybrid_cache_fraction < 1.0,
                   "machine '" << name << "': hybrid_cache_fraction="
                               << hybrid_cache_fraction
                               << " must be strictly between 0 and 1");
  // Domain counts must divide the active tile count so SNC domains are
  // balanced.
  CAPMEM_CHECK_MSG(active_tiles % 4 == 0,
                   "machine '" << name << "': active_tiles=" << active_tiles
                               << " must be a multiple of 4 so SNC4 "
                                  "domains are balanced");
}

MachineConfig knl7210(ClusterMode cluster, MemoryMode memory) {
  MachineConfig cfg;
  cfg.cluster = cluster;
  cfg.memory = memory;
  cfg.validate();
  return cfg;
}

MachineConfig tiny_machine(ClusterMode cluster, MemoryMode memory) {
  MachineConfig cfg;
  cfg.name = "tiny";
  cfg.cluster = cluster;
  cfg.memory = memory;
  cfg.mesh_rows = 3;
  cfg.mesh_cols = 4;
  cfg.physical_tiles = 10;
  cfg.active_tiles = 8;  // 16 cores
  cfg.dram_bytes = MiB(64);
  cfg.mcdram_bytes = MiB(16);
  cfg.seed = 7;
  cfg.validate();
  return cfg;
}

namespace {

// Synthetic machines for the machine-family experiments. Their calibration
// constants deliberately differ from the KNL's so the fitted capability
// models differ — the point of the family is demonstrating the
// measure->fit->optimize pipeline transfers, not modeling real parts.

// 4x5 mesh, 16 tiles / 32 cores; slower mesh, narrow DDR, modest MCDRAM.
MachineConfig mini_16t(ClusterMode cluster, MemoryMode memory) {
  MachineConfig cfg;
  cfg.name = "mini_16t";
  cfg.cluster = cluster;
  cfg.memory = memory;
  cfg.mesh_rows = 4;
  cfg.mesh_cols = 5;
  cfg.physical_tiles = 18;
  cfg.active_tiles = 16;  // 32 cores
  cfg.dram_bytes = GiB(32);
  cfg.mcdram_bytes = GiB(8);
  cfg.dram_channels_per_controller = 2;
  cfg.mcdram_controllers = 4;
  cfg.lat.remote_base = 82.0;
  cfg.lat.hop = 1.6;
  cfg.lat.dram_service = 110.0;
  cfg.lat.mcdram_service = 140.0;
  cfg.lat.line_service = 48.0;
  cfg.bw.dram_channel_gbps = 9.6;
  cfg.bw.mcdram_channel_gbps = 28.0;
  cfg.seed = 11;
  cfg.validate();
  return cfg;
}

// 8x4 mesh, 24 tiles / 48 cores; long skinny die, hop-dominated latencies.
MachineConfig tall_24t(ClusterMode cluster, MemoryMode memory) {
  MachineConfig cfg;
  cfg.name = "tall_24t";
  cfg.cluster = cluster;
  cfg.memory = memory;
  cfg.mesh_rows = 8;
  cfg.mesh_cols = 4;
  cfg.physical_tiles = 28;
  cfg.active_tiles = 24;  // 48 cores
  cfg.dram_bytes = GiB(64);
  cfg.mcdram_bytes = GiB(12);
  cfg.mcdram_controllers = 6;
  cfg.lat.remote_base = 120.0;
  cfg.lat.hop = 0.8;
  cfg.lat.dram_service = 150.0;
  cfg.lat.mcdram_service = 175.0;
  cfg.lat.line_service = 80.0;
  cfg.bw.dram_channel_gbps = 11.0;
  cfg.bw.mcdram_channel_gbps = 36.0;
  cfg.seed = 23;
  cfg.validate();
  return cfg;
}

// 4x17 mesh, 64 single-core tiles: the coherence-mask limit, exercised with
// spread memory stops (the corner layout makes no sense at aspect 1:4).
MachineConfig wide_64t(ClusterMode cluster, MemoryMode memory) {
  MachineConfig cfg;
  cfg.name = "wide_64t";
  cfg.cluster = cluster;
  cfg.memory = memory;
  cfg.mesh_rows = 4;
  cfg.mesh_cols = 17;
  cfg.physical_tiles = 66;
  cfg.active_tiles = 64;
  cfg.cores_per_tile = 1;  // 64 cores: at the L1 presence-mask limit
  cfg.threads_per_core = 2;
  cfg.stop_placement = StopPlacement::kSpread;
  cfg.dram_bytes = GiB(64);
  cfg.mcdram_bytes = GiB(16);
  cfg.lat.hop = 0.9;
  cfg.seed = 5;
  cfg.validate();
  return cfg;
}

}  // namespace

MachineConfig machine_preset(const std::string& name, ClusterMode cluster,
                             MemoryMode memory) {
  if (name == "knl_38t" || name == "knl7210") return knl7210(cluster, memory);
  if (name == "tiny_8t" || name == "tiny") return tiny_machine(cluster, memory);
  if (name == "mini_16t") return mini_16t(cluster, memory);
  if (name == "tall_24t") return tall_24t(cluster, memory);
  if (name == "wide_64t") return wide_64t(cluster, memory);
  std::string known;
  for (const std::string& n : machine_preset_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  CAPMEM_CHECK_MSG(false, "unknown machine preset '" << name << "' (known: "
                                                     << known << ")");
}

std::vector<std::string> machine_preset_names() {
  return {"knl_38t", "tiny_8t", "mini_16t", "tall_24t", "wide_64t"};
}

}  // namespace capmem::sim
