#include <gtest/gtest.h>

#include "sim/coherence.hpp"

namespace capmem::sim {
namespace {

TEST(Directory, UntrackedLineIsInvalid) {
  Directory d;
  EXPECT_EQ(d.find(5), nullptr);
  EXPECT_EQ(d.state_in_tile(5, 0), TileState::kI);
}

TEST(Directory, OwnerStates) {
  Directory d;
  LineEntry& e = d.entry(1);
  e.owner = 3;
  e.l2_mask = 1ull << 3;
  e.dirty = false;
  EXPECT_EQ(d.state_in_tile(1, 3), TileState::kE);
  e.dirty = true;
  EXPECT_EQ(d.state_in_tile(1, 3), TileState::kM);
  EXPECT_EQ(d.state_in_tile(1, 4), TileState::kI);
  d.check_invariants(1);
}

TEST(Directory, SharedAndForwardStates) {
  Directory d;
  LineEntry& e = d.entry(2);
  e.l2_mask = (1ull << 1) | (1ull << 5);
  e.forward = 5;
  EXPECT_EQ(d.state_in_tile(2, 1), TileState::kS);
  EXPECT_EQ(d.state_in_tile(2, 5), TileState::kF);
  d.check_invariants(2);
}

TEST(Directory, InvariantOwnerNeedsSingleCopy) {
  Directory d;
  LineEntry& e = d.entry(3);
  e.owner = 1;
  e.l2_mask = (1ull << 1) | (1ull << 2);
  EXPECT_THROW(d.check_invariants(3), CheckError);
}

TEST(Directory, InvariantOwnerMustBePresent) {
  Directory d;
  LineEntry& e = d.entry(4);
  e.owner = 1;
  e.l2_mask = 1ull << 2;
  EXPECT_THROW(d.check_invariants(4), CheckError);
}

TEST(Directory, InvariantDirtyRequiresOwner) {
  Directory d;
  LineEntry& e = d.entry(5);
  e.l2_mask = 1ull << 2;
  e.dirty = true;
  EXPECT_THROW(d.check_invariants(5), CheckError);
}

TEST(Directory, InvariantForwarderMustBeSharer) {
  Directory d;
  LineEntry& e = d.entry(6);
  e.l2_mask = 1ull << 2;
  e.forward = 3;
  EXPECT_THROW(d.check_invariants(6), CheckError);
}

TEST(Directory, DropCompactsAndResetsMemo) {
  Directory d;
  d.entry(7).version = 5;  // line 7 is now the one-slot memo
  d.entry(8);
  EXPECT_EQ(d.tracked_lines(), 2u);
  d.drop(8);
  d.entry(7);  // memo hit for 7 again
  d.drop(7);
  EXPECT_EQ(d.tracked_lines(), 0u);
  EXPECT_EQ(d.find(7), nullptr);
  // A dropped memoized line comes back as a fresh Invalid entry.
  EXPECT_EQ(d.entry(7).version, 0u);
  EXPECT_EQ(d.tracked_lines(), 1u);
}

TEST(TileStateNames, AllDistinct) {
  EXPECT_STREQ(to_string(TileState::kI), "I");
  EXPECT_STREQ(to_string(TileState::kM), "M");
  EXPECT_STREQ(to_string(TileState::kE), "E");
  EXPECT_STREQ(to_string(TileState::kS), "S");
  EXPECT_STREQ(to_string(TileState::kF), "F");
}

}  // namespace
}  // namespace capmem::sim
