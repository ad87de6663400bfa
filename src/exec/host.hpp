// Host-side resource probes for the perf harnesses.
//
// The exec layer is the one place that talks to the host (threads, wall
// clocks), so host resource accounting lives here too. These values are
// nondeterministic by nature: they may appear in perf reports and metrics
// files, never in experiment results or golden stdout.
#pragma once

#include <cstdint>

namespace capmem::exec {

/// Peak resident-set size of this process in bytes (getrusage; 0 when the
/// platform does not report it).
std::uint64_t host_peak_rss_bytes();

/// Monotonic host wall clock in seconds (steady_clock; perf timing only).
double host_now_seconds();

}  // namespace capmem::exec
