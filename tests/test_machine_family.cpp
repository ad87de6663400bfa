// Machine-factory coverage: every preset is a valid machine, the fuzz
// differ passes on non-KNL presets under non-MESIF protocols, and the
// paper's measure -> fit -> optimize pipeline runs end-to-end on synthetic
// machines — with fitted constants that differ per machine while the
// model's predicted collective cost still brackets what the simulator
// delivers on that same machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "check/differ.hpp"
#include "coll/harness.hpp"
#include "common/check.hpp"
#include "model/fit.hpp"
#include "model/tree_opt.hpp"
#include "sim/machine.hpp"

namespace capmem {
namespace {

using check::DiffOutcome;
using check::WorkloadSpec;
using check::run_diff;

TEST(MachineFamily, EveryPresetValidates) {
  for (const std::string& name : sim::machine_preset_names()) {
    SCOPED_TRACE(name);
    const sim::MachineConfig cfg = sim::machine_preset(name);
    cfg.validate();
    sim::Topology topo(cfg);
    EXPECT_EQ(topo.active_tiles(), cfg.active_tiles);
  }
}

TEST(MachineFamily, UnknownPresetThrowsWithNames) {
  try {
    sim::machine_preset("knl_9999");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    // The message must list the known presets so the CLI error is
    // actionable.
    EXPECT_NE(std::string(e.what()).find("knl_38t"), std::string::npos)
        << e.what();
  }
}

TEST(MachineFamily, PresetAliases) {
  EXPECT_EQ(sim::machine_preset("knl_38t").name,
            sim::machine_preset("knl7210").name);
  EXPECT_EQ(sim::machine_preset("tiny_8t").active_tiles,
            sim::machine_preset("tiny").active_tiles);
}

TEST(MachineFamily, PresetsAreDistinctMachines) {
  const sim::MachineConfig mini = sim::machine_preset("mini_16t");
  const sim::MachineConfig tall = sim::machine_preset("tall_24t");
  const sim::MachineConfig wide = sim::machine_preset("wide_64t");
  EXPECT_EQ(mini.active_tiles, 16);
  EXPECT_EQ(tall.active_tiles, 24);
  EXPECT_EQ(wide.active_tiles, 64);
  EXPECT_NE(mini.mesh_rows * 100 + mini.mesh_cols,
            tall.mesh_rows * 100 + tall.mesh_cols);
  EXPECT_NE(mini.lat.remote_base, tall.lat.remote_base);
  EXPECT_EQ(wide.stop_placement, sim::StopPlacement::kSpread);
}

// The differ's full machinery (SC oracle, rules-aware invariant sweeps,
// inline shadow) on non-KNL machines under non-MESIF protocols.
void diff_cell(const std::string& machine, sim::Protocol protocol,
               sim::ClusterMode cluster, sim::MemoryMode memory) {
  WorkloadSpec spec;
  spec.threads = 8;
  spec.ops_per_thread = 120;
  spec.seed = 29;
  spec.machine = machine;
  spec.protocol = protocol;
  spec.cluster = cluster;
  spec.memory = memory;
  const DiffOutcome out = run_diff(spec);
  EXPECT_TRUE(out.ok) << spec.label() << ":\n" << out.report;
}

TEST(MachineFamily, DiffPassesMesiOnMini) {
  diff_cell("mini_16t", sim::Protocol::kMesi, sim::ClusterMode::kQuadrant,
            sim::MemoryMode::kFlat);
  diff_cell("mini_16t", sim::Protocol::kMesi, sim::ClusterMode::kSNC4,
            sim::MemoryMode::kCache);
}

TEST(MachineFamily, DiffPassesMosiOnMini) {
  diff_cell("mini_16t", sim::Protocol::kMosi, sim::ClusterMode::kQuadrant,
            sim::MemoryMode::kFlat);
  diff_cell("mini_16t", sim::Protocol::kMosi, sim::ClusterMode::kA2A,
            sim::MemoryMode::kHybrid);
}

TEST(MachineFamily, DiffPassesAllProtocolsOnTall) {
  for (sim::Protocol p : sim::all_protocols()) {
    SCOPED_TRACE(sim::to_string(p));
    diff_cell("tall_24t", p, sim::ClusterMode::kSNC2,
              sim::MemoryMode::kFlat);
  }
}

TEST(MachineFamily, DiffPassesOnWideMesh) {
  diff_cell("wide_64t", sim::Protocol::kMesi, sim::ClusterMode::kQuadrant,
            sim::MemoryMode::kFlat);
}

// measure -> fit on two synthetic machines: the pipeline is
// machine-agnostic, and the fitted capability constants must reflect each
// machine's own timing, not KNL's.
TEST(MachineFamily, FittedConstantsDifferAcrossMachines) {
  bench::SuiteOptions sopts;
  sopts.run.iters = 5;
  const model::CapabilityModel mini =
      model::fit_cache_model(sim::machine_preset("mini_16t"), sopts);
  const model::CapabilityModel tall =
      model::fit_cache_model(sim::machine_preset("tall_24t"), sopts);
  EXPECT_GT(mini.r_remote, 0.0);
  EXPECT_GT(tall.r_remote, 0.0);
  // tall_24t's remote_base (120 ns) is ~50% above mini_16t's (82 ns); the
  // fitted R_R must order the machines the same way with clear separation.
  EXPECT_GT(tall.r_remote, mini.r_remote * 1.15);
  EXPECT_NE(mini.lat_dram, tall.lat_dram);
}

// The fit's suite cells keep their submission slots at any job count, so
// the fitted model — as capmem_serve fits and persists it — is the same
// text at one and two host threads.
TEST(MachineFamily, FittedModelTextIsIdenticalAtAnyJobCount) {
  for (const char* machine : {"tiny_8t", "mini_16t"}) {
    for (sim::Protocol protocol : {sim::Protocol::kMesif,
                                   sim::Protocol::kMosi}) {
      SCOPED_TRACE(std::string(machine) + "/" + sim::to_string(protocol));
      sim::MachineConfig cfg = sim::machine_preset(machine);
      cfg.protocol = protocol;
      std::string text[2];
      for (int jobs : {1, 2}) {
        bench::SuiteOptions so;
        so.fast = true;
        so.streams = false;
        so.jobs = jobs;
        std::ostringstream os;
        model::fit_cache_model(cfg, so).save(os);
        text[jobs - 1] = os.str();
      }
      EXPECT_FALSE(text[0].empty());
      EXPECT_EQ(text[0], text[1]);
    }
  }
}

// fit -> optimize -> simulate agreement on a synthetic machine (the
// fig6-style loop of the paper, §IV.B.3): the tuned barrier's simulated
// cost must land inside a small factor of the model's min-max band that
// was predicted *from measurements of that same machine*.
void check_predicted_vs_simulated(const std::string& machine) {
  const sim::MachineConfig cfg = sim::machine_preset(machine);
  bench::SuiteOptions sopts;
  sopts.run.iters = 5;
  const model::CapabilityModel m = model::fit_cache_model(cfg, sopts);

  coll::HarnessOptions ho;
  ho.iters = 21;
  const int nthreads = std::min(16, cfg.hw_threads());
  const coll::CollResult r =
      coll::run_collective(cfg, coll::Algo::kTunedBarrier, nthreads, &m, ho);
  EXPECT_EQ(r.errors, 0u);
  ASSERT_TRUE(r.has_band);
  EXPECT_GT(r.band.best_ns, 0.0);
  EXPECT_GE(r.band.worst_ns, r.band.best_ns);
  // Same acceptance shape as the paper's figures: the measured median sits
  // within a modest factor of the predicted band (model error is expected;
  // an order-of-magnitude miss would mean the fit ran on the wrong
  // machine).
  EXPECT_GT(r.per_iter_max.median, r.band.best_ns * 0.3)
      << machine << ": simulated " << r.per_iter_max.median << " vs band ["
      << r.band.best_ns << ", " << r.band.worst_ns << "]";
  EXPECT_LT(r.per_iter_max.median, r.band.worst_ns * 3.0)
      << machine << ": simulated " << r.per_iter_max.median << " vs band ["
      << r.band.best_ns << ", " << r.band.worst_ns << "]";
}

TEST(MachineFamily, PredictedVsSimulatedAgreesOnMini) {
  check_predicted_vs_simulated("mini_16t");
}

TEST(MachineFamily, PredictedVsSimulatedAgreesOnTall) {
  check_predicted_vs_simulated("tall_24t");
}

// The optimizer consumes whatever constants the fit produced, so two
// machines with different capabilities may tune to different trees; at
// minimum the predicted costs must differ.
TEST(MachineFamily, TunedTreesReflectTheMachine) {
  bench::SuiteOptions sopts;
  sopts.run.iters = 5;
  const model::CapabilityModel mini =
      model::fit_cache_model(sim::machine_preset("mini_16t"), sopts);
  const model::CapabilityModel tall =
      model::fit_cache_model(sim::machine_preset("tall_24t"), sopts);
  const model::TunedTree a = model::optimize_tree(
      mini, 16, model::TreeKind::kBroadcast, sim::MemKind::kMCDRAM);
  const model::TunedTree b = model::optimize_tree(
      tall, 16, model::TreeKind::kBroadcast, sim::MemKind::kMCDRAM);
  EXPECT_EQ(model::tree_nodes(a.root), 16);
  EXPECT_EQ(model::tree_nodes(b.root), 16);
  EXPECT_NE(a.predicted_ns, b.predicted_ns);
}

}  // namespace
}  // namespace capmem
