#include "sim/resource.hpp"

#include <algorithm>

#include "sim/observer.hpp"

namespace capmem::sim {

Nanos ChannelPool::transfer(int channel, Nanos now, double bytes,
                            double rate_factor) {
  Reservation& ch = channels_.at(static_cast<std::size_t>(channel));
  if (!degrade_.empty()) {
    const double f = degrade_[static_cast<std::size_t>(channel)];
    if (f != 1.0) {
      rate_factor *= f;
      ++degraded_transfers_;
    }
  }
  const Nanos service = bytes / (rate_ * rate_factor);
  const Nanos arrive = now - lead_ns_;
  // Queue delay: time the request sat behind earlier reservations between
  // its (back-dated) arrival and service start.
  const Nanos queue = std::max<Nanos>(0, ch.available() - arrive);
  if (now > final_at_ || (now == final_at_ && queue > final_queue_ns_)) {
    final_at_ = now;
    final_queue_ns_ = queue;
  }
  const Nanos start = ch.acquire(arrive, service);
  const Nanos done = start + service;
  if (obs_) obs_->on_channel_xfer(kind_, channel, start, service, queue);
  return std::max(now, done);
}

}  // namespace capmem::sim
