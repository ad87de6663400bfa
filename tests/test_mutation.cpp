// Mutation-smoke: proves the capmem::check layer has teeth.
//
// This binary links `capmem_sim_mutant` — the simulator compiled with
// CAPMEM_MUTATION_SMOKE, whose runtime switch (sim/mutation.hpp) can
// corrupt one MESIF transition — and compiles the check sources directly
// against it. The checker must report divergence exactly when an injection
// is armed: clean runs stay clean, the version-skip fault is caught by the
// oracle's version mirror, the stale-copy fault by the cross-structure
// residency sweep, and each fault is invisible to the probe that does not
// exercise its transition (selectivity).
#include <gtest/gtest.h>

#include "check/differ.hpp"
#include "sim/machine.hpp"
#include "sim/mutation.hpp"

namespace capmem::check {
namespace {

using sim::mutation::Kind;

// The switch is process-global; every test arms its own kind and the guard
// disarms on exit so ordering between tests cannot leak.
struct MutationGuard {
  explicit MutationGuard(Kind k) { sim::mutation::set(k); }
  ~MutationGuard() { sim::mutation::set(Kind::kNone); }
};

// One thread writes one line twice: the first write takes the RFO path
// (version bump ungated), the second the owned-tile silent upgrade — the
// gated injection site. Returns the checker's violation count.
std::uint64_t silent_upgrade_probe() {
  sim::MachineConfig cfg = sim::knl7210();
  Checker checker(cfg);
  cfg.check = &checker;
  sim::Machine m(cfg);
  const sim::Addr a = m.alloc("x", kLineBytes, {}, true);
  const auto slots = sim::make_schedule(cfg, sim::Schedule::kScatter, 1);
  m.add_thread(slots[0], [&](sim::Ctx& ctx) -> sim::Task {
    co_await ctx.write_u64(a, 1);
    co_await ctx.write_u64(a, 2);
  });
  m.run();
  checker.final_sweep(m.memsys());
  return checker.violation_count();
}

// Tile A reads a line (becomes a sharer), then a thread on another tile
// writes it: the RFO's invalidation round is where the stale-copy fault
// leaves A's L2 tag behind. Returns the checker's violation count.
std::uint64_t shared_invalidate_probe() {
  sim::MachineConfig cfg = sim::knl7210();
  Checker checker(cfg);
  cfg.check = &checker;
  sim::Machine m(cfg);
  const sim::Addr a = m.alloc("x", kLineBytes, {}, true);
  const auto slots = sim::make_schedule(cfg, sim::Schedule::kScatter, 2);
  m.add_thread(slots[0], [&](sim::Ctx& ctx) -> sim::Task {
    co_await ctx.read_u64(a);
  });
  m.add_thread(slots[1], [&](sim::Ctx& ctx) -> sim::Task {
    co_await ctx.compute(500.0);  // let the reader finish first
    co_await ctx.write_u64(a, 7);
  });
  m.run();
  checker.final_sweep(m.memsys());
  return checker.violation_count();
}

TEST(Mutation, CleanBuildPassesBothProbes) {
  MutationGuard guard(Kind::kNone);
  EXPECT_EQ(silent_upgrade_probe(), 0u);
  EXPECT_EQ(shared_invalidate_probe(), 0u);
}

TEST(Mutation, CleanBuildPassesRandomizedDiff) {
  MutationGuard guard(Kind::kNone);
  WorkloadSpec spec;
  spec.threads = 8;
  spec.ops_per_thread = 120;
  spec.seed = 13;
  const DiffOutcome out = run_diff(spec);
  EXPECT_TRUE(out.ok) << out.report;
}

TEST(Mutation, OracleCatchesSkippedVersionBump) {
  MutationGuard guard(Kind::kSkipVersionBump);
  EXPECT_GT(silent_upgrade_probe(), 0u);
}

TEST(Mutation, VersionBumpFaultInvisibleToRfoOnlyProbe) {
  // The shared-invalidate probe writes each line exactly once (always the
  // ungated RFO path), so the version-skip fault must not fire there.
  MutationGuard guard(Kind::kSkipVersionBump);
  EXPECT_EQ(shared_invalidate_probe(), 0u);
}

TEST(Mutation, SweepCatchesStaleL2Copy) {
  MutationGuard guard(Kind::kStaleL2Copy);
  EXPECT_GT(shared_invalidate_probe(), 0u);
}

TEST(Mutation, StaleCopyFaultInvisibleWithoutSharers) {
  // A single-thread writer never invalidates a remote sharer, so the
  // stale-copy fault has no transition to corrupt.
  MutationGuard guard(Kind::kStaleL2Copy);
  EXPECT_EQ(silent_upgrade_probe(), 0u);
}

TEST(Mutation, DiffHarnessCatchesVersionFault) {
  MutationGuard guard(Kind::kSkipVersionBump);
  WorkloadSpec spec;
  spec.threads = 8;
  spec.ops_per_thread = 120;
  spec.seed = 13;  // same spec that passes clean above
  const DiffOutcome out = run_diff(spec);
  EXPECT_FALSE(out.ok);
  EXPECT_GT(out.violations, 0u);
}

TEST(Mutation, DiffHarnessCatchesStaleCopyFault) {
  MutationGuard guard(Kind::kStaleL2Copy);
  WorkloadSpec spec;
  spec.threads = 8;
  spec.ops_per_thread = 120;
  spec.seed = 13;
  const DiffOutcome out = run_diff(spec);
  EXPECT_FALSE(out.ok);
  EXPECT_GT(out.violations, 0u);
}

// --- protocol-specific injections (one illegal transition per protocol)
// ---
//
// Each fault corrupts a transition only its protocol performs, immediately
// before the per-transition legal-state check, so the check must throw on
// that very transition — and runs under any *other* protocol must stay
// clean, proving the rules tables are selective rather than merely strict.

WorkloadSpec protocol_spec(sim::Protocol p) {
  WorkloadSpec spec;
  spec.threads = 8;
  spec.ops_per_thread = 120;
  spec.seed = 13;
  spec.protocol = p;
  return spec;
}

TEST(Mutation, RulesCatchMesiPhantomForwarder) {
  MutationGuard guard(Kind::kMesiPhantomForwarder);
  const DiffOutcome out = run_diff(protocol_spec(sim::Protocol::kMesi));
  EXPECT_FALSE(out.ok);
  // The table check throws on the corrupting transition itself, so the
  // report carries the simulator abort, not a downstream value diff.
  EXPECT_NE(out.report.find("simulator threw"), std::string::npos)
      << out.report;
}

TEST(Mutation, PhantomForwarderInvisibleUnderMesif) {
  // MESIF legitimately designates forwarders, so the injection predicate
  // never fires on the MESIF instantiation of the transition.
  MutationGuard guard(Kind::kMesiPhantomForwarder);
  const DiffOutcome out = run_diff(protocol_spec(sim::Protocol::kMesif));
  EXPECT_TRUE(out.ok) << out.report;
}

TEST(Mutation, RulesCatchMosiLostOwner) {
  MutationGuard guard(Kind::kMosiLostOwner);
  const DiffOutcome out = run_diff(protocol_spec(sim::Protocol::kMosi));
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.report.find("simulator threw"), std::string::npos)
      << out.report;
}

TEST(Mutation, LostOwnerInvisibleUnderMesif) {
  // MESIF write-backs and downgrades on the same transition, so there is
  // no dirty-shared bookkeeping for the fault to corrupt.
  MutationGuard guard(Kind::kMosiLostOwner);
  const DiffOutcome out = run_diff(protocol_spec(sim::Protocol::kMesif));
  EXPECT_TRUE(out.ok) << out.report;
}

}  // namespace
}  // namespace capmem::check
