#include <gtest/gtest.h>

#include "sim/resource.hpp"

namespace capmem::sim {
namespace {

TEST(Reservation, UncontendedStartsImmediately) {
  Reservation r;
  EXPECT_DOUBLE_EQ(r.acquire(10.0, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(r.available(), 15.0);
}

TEST(Reservation, BackToBackQueues) {
  Reservation r;
  r.acquire(0.0, 10.0);
  EXPECT_DOUBLE_EQ(r.acquire(3.0, 10.0), 10.0);  // waits for first
  EXPECT_DOUBLE_EQ(r.acquire(50.0, 10.0), 50.0);  // idle gap: immediate
}

TEST(Reservation, BusyAccumulates) {
  Reservation r;
  r.acquire(0.0, 4.0);
  r.acquire(0.0, 6.0);
  EXPECT_DOUBLE_EQ(r.busy(), 10.0);
}

TEST(ChannelPool, TransferTimeMatchesRate) {
  ChannelPool p(2, 10.0);  // 10 GB/s = 10 bytes/ns
  EXPECT_DOUBLE_EQ(p.transfer(0, 0.0, 640.0), 64.0);
  // Second transfer on same channel queues; other channel is free.
  EXPECT_DOUBLE_EQ(p.transfer(0, 0.0, 640.0), 128.0);
  EXPECT_DOUBLE_EQ(p.transfer(1, 0.0, 640.0), 64.0);
}

TEST(ChannelPool, RateFactorSlowsTransfer) {
  ChannelPool p(1, 10.0);
  EXPECT_DOUBLE_EQ(p.transfer(0, 0.0, 100.0, 0.5), 20.0);
}

TEST(ChannelPool, InvalidConfigThrows) {
  EXPECT_THROW(ChannelPool(0, 10.0), CheckError);
  EXPECT_THROW(ChannelPool(2, 0.0), CheckError);
}

TEST(ChannelPool, OutOfRangeChannelThrows) {
  ChannelPool p(2, 1.0);
  EXPECT_THROW(p.transfer(2, 0.0, 1.0), std::out_of_range);
}

TEST(ChannelPool, AggregateBandwidthProperty) {
  // Saturating both channels: total bytes / makespan == 2x rate.
  ChannelPool p(2, 5.0);
  double end = 0;
  for (int i = 0; i < 100; ++i) {
    end = std::max(end, p.transfer(i % 2, 0.0, 64.0));
  }
  const double gbps = 100 * 64.0 / end;
  EXPECT_NEAR(gbps, 10.0, 0.2);
}

}  // namespace
}  // namespace capmem::sim
