// Test-only fault injection for the mutation-smoke test.
//
// Proves the capmem::check oracle has teeth: a build with
// CAPMEM_MUTATION_SMOKE defined (the `capmem_sim_mutant` library used only
// by tests/test_mutation.cpp) can deliberately corrupt one MESIF transition
// at runtime, and the checker must report divergence exactly then. In
// regular builds the predicates are constexpr-false, so every injection
// site folds away to the unmodified code — production capmem_sim contains
// no trace of the machinery.
#pragma once

namespace capmem::sim::mutation {

enum class Kind {
  kNone,
  /// The owned-tile silent write upgrade "forgets" to bump the line's
  /// directory version (a silent bookkeeping corruption: the simulator
  /// keeps running normally and only the oracle's mirror can notice).
  kSkipVersionBump,
  /// An invalidation round clears the directory sharer bit but leaves the
  /// victim tile's L2 copy resident (a stale-line coherence bug: only the
  /// cross-structure residency sweep can notice).
  kStaleL2Copy,
  /// MESI only: a read served cache-to-cache designates the requester as a
  /// forwarder — a state MESI does not have. Caught by the protocol's
  /// legal-state table (has_forward = false) on the very transition.
  kMesiPhantomForwarder,
  /// MOSI only: a read from a modified line drops the owner while leaving
  /// the line dirty — the O-state bookkeeping "loses" the owner, so the
  /// dirty-implies-owner rule trips on the very transition.
  kMosiLostOwner,
};

#ifdef CAPMEM_MUTATION_SMOKE
inline Kind g_kind = Kind::kNone;
inline void set(Kind k) { g_kind = k; }
inline bool is(Kind k) { return g_kind == k; }
#else
inline void set(Kind) {}
constexpr bool is(Kind) { return false; }
#endif

}  // namespace capmem::sim::mutation
