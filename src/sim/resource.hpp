// Reservation resources: the contention primitives of the simulator.
//
// A Reservation models a serially reusable unit (a memory channel, a core's
// load/store issue ports). Acquiring it at virtual time `now` for `service`
// nanoseconds returns the start time max(now, available) and pushes the
// availability forward. Because the engine executes operations in
// nondecreasing virtual time, this is an exact single-server FIFO queue.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/config.hpp"
#include "sim/state.hpp"

namespace capmem::sim {

class Observer;

class Reservation {
 public:
  /// Reserves the resource; returns the service start time.
  Nanos acquire(Nanos now, Nanos service) {
    CAPMEM_DCHECK(service >= 0);
    const Nanos start = now > available_ ? now : available_;
    available_ = start + service;
    busy_ += service;
    return start;
  }

  /// Completion time of the last reservation.
  Nanos available() const { return available_; }
  /// Total busy time, for utilization accounting.
  Nanos busy() const { return busy_; }

  /// Checkpoint support (capmem::snap).
  state::ReservationState export_state() const {
    return {available_, busy_};
  }

 private:
  Nanos available_ = 0;
  Nanos busy_ = 0;
};

/// A set of identical parallel servers (e.g. the channels of one memory
/// kind). Callers address a specific channel (the address map decides which
/// line lives on which channel).
///
/// Each channel is a rate limiter with a bounded request queue: a requester
/// may run up to `lead_ns` of reserved work ahead of its own clock before
/// the channel exerts backpressure. This models the memory controller's
/// per-channel queue absorbing bursts — without it, one-outstanding-line
/// threads convoy on randomly imbalanced channels and a saturated memory
/// system idles at ~50% utilization, which real controllers do not.
class ChannelPool {
 public:
  ChannelPool(int channels, GBps per_channel_rate, Nanos lead_ns = 0)
      : rate_(per_channel_rate),
        lead_ns_(lead_ns),
        channels_(static_cast<std::size_t>(channels)) {
    CAPMEM_CHECK(channels > 0 && per_channel_rate > 0);
  }

  /// Reserves `bytes` of transfer on `channel`; returns the time at which
  /// the requester may consider the transfer complete. The request is
  /// back-dated by up to `lead_ns` (the controller had it queued while the
  /// requester's clock was held up elsewhere), so a channel that fell idle
  /// within the lead window still serves it without a gap.
  Nanos transfer(int channel, Nanos now, double bytes,
                 double rate_factor = 1.0);

  /// Attaches the observer (null to detach), which sees every transfer as
  /// a channel transfer of the `kind` memory.
  void set_observer(Observer* obs, MemKind kind) {
    obs_ = obs;
    kind_ = kind;
  }

  /// Installs per-channel fault factors (1.0 = healthy; < 1.0 = flaky
  /// channel serving at that fraction of the pool rate). Empty (the
  /// default) keeps the healthy fast path to a single branch per transfer.
  /// Sized vectors must match size().
  void set_fault_factors(std::vector<double> factors) {
    CAPMEM_CHECK(factors.empty() || factors.size() == channels_.size());
    degrade_ = std::move(factors);
  }
  /// Transfers that hit a flaky channel since construction.
  std::uint64_t degraded_transfers() const { return degraded_transfers_; }

  int size() const { return static_cast<int>(channels_.size()); }
  GBps rate() const { return rate_; }
  Nanos lead() const { return lead_ns_; }
  Nanos busy(int channel) const {
    return channels_.at(static_cast<std::size_t>(channel)).busy();
  }
  /// Sum of per-channel busy times, for pool-level utilization.
  Nanos busy_total() const {
    Nanos t = 0;
    for (const auto& c : channels_) t += c.busy();
    return t;
  }
  /// Exported final-transfer marker: the lexicographic max of (requester
  /// clock, queue delay) over every transfer so far — an order-free
  /// reduction rather than "whatever ran last". With engine event times
  /// nondecreasing the two only differ when several transfers share the
  /// final instant. The marker keeps this form because it is part of the
  /// CAPSNAP1 snapshot bytes: changing it would change every snapshot id.
  Nanos final_transfer_at() const { return final_at_; }
  Nanos final_queue_ns() const { return final_queue_ns_; }

  /// Checkpoint support (capmem::snap). Rate/lead/fault factors are
  /// config-derived and not part of the state.
  state::PoolState export_state() const {
    state::PoolState s;
    s.channels.reserve(channels_.size());
    for (const Reservation& c : channels_) s.channels.push_back(c.export_state());
    s.degraded_transfers = degraded_transfers_;
    s.last_queue_ns = final_queue_ns_;
    s.last_transfer_at = final_at_;
    return s;
  }

 private:
  GBps rate_;
  Nanos lead_ns_;
  std::vector<Reservation> channels_;
  std::vector<double> degrade_;  ///< empty unless a fault plan is attached
  std::uint64_t degraded_transfers_ = 0;
  Nanos final_queue_ns_ = 0;  ///< order-free exported marker
  Nanos final_at_ = -1;       ///< -1: no transfer yet
  Observer* obs_ = nullptr;
  MemKind kind_ = MemKind::kDDR;
};

}  // namespace capmem::sim
