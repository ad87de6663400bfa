#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sim/coherence.hpp"
#include "sim/machine.hpp"

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

// Field-by-field bytes of an export (struct padding excluded).
std::vector<std::uint8_t> export_bytes(const Directory& d) {
  std::vector<std::uint8_t> out;
  auto put = [&out](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out.insert(out.end(), p, p + sizeof(v));
  };
  for (const state::DirEntryState& e : d.export_state()) {
    put(e.line);
    put(e.l2_mask);
    put(e.owner);
    put(e.forward);
    put(e.dirty);
    put(e.service_available);
    put(e.last_write_visible);
    put(e.version);
  }
  return out;
}

TEST(Directory, ExportIsIndependentOfInsertOrder) {
  // Same live lines reached through different insert/drop histories, so the
  // two directories place their pages in different slots.
  std::vector<Line> lines;
  for (Line l = 0; l < 64 * 40; l += 3) lines.push_back(l);
  lines.push_back(Line{1} << 50);
  std::vector<Line> shuffled = lines;
  Rng rng(5);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  auto fill = [](Directory& d, Line line) {
    LineEntry& e = d.entry(line);
    e.l2_mask = 1ull << (line % 7);
    e.owner = static_cast<std::int8_t>(line % 7);
    e.dirty = (line & 1) != 0;
    e.service_available = static_cast<Nanos>(line) * 0.5;
    e.last_write_visible = static_cast<Nanos>(line) + 0.25;
    e.version = line * 11;
  };
  Directory a;
  Directory b;
  for (Line l : lines) fill(a, l);
  for (Line l = 64 * 50; l < 64 * 60; ++l) b.entry(l);  // extra pages first
  for (Line l : shuffled) fill(b, l);
  for (Line l = 64 * 50; l < 64 * 60; ++l) b.drop(l);
  ASSERT_EQ(a.tracked_lines(), b.tracked_lines());
  EXPECT_EQ(export_bytes(a), export_bytes(b));
  // And the export is sorted by line.
  const auto exported = a.export_state();
  EXPECT_TRUE(std::is_sorted(
      exported.begin(), exported.end(),
      [](const auto& x, const auto& y) { return x.line < y.line; }));
}

// A non-temporal store invalidates every cached copy, the storing core's
// own tile included: here tile 0 holds the line in M, in the L1s of both of
// its cores, when core 0 NT-stores it.
TEST(Coherence, NtStoreFromModifiedTileLeavesNoCopy) {
  MachineConfig cfg = knl7210();
  cfg.noise.enabled = false;
  Machine m(cfg);
  const Addr buf = m.alloc("b", kLineBytes, {}, true);
  const Line line = line_of(buf);
  m.add_thread({0, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.write_u64(buf, 1);
    co_await ctx.sync();
    co_await ctx.sync();
    const MemSystem& before = ctx.machine().memsys();
    EXPECT_EQ(before.state_in_tile(line, 0), TileState::kM);
    EXPECT_TRUE(before.line_in_l1(0, line));
    EXPECT_TRUE(before.line_in_l1(1, line));
    AccessOpts nt;
    nt.nt = true;
    co_await ctx.touch(buf, AccessType::kWrite, nt);
  });
  m.add_thread({1, 0}, [&](Ctx& ctx) -> Task {
    co_await ctx.sync();
    co_await ctx.read_u64(buf);
    co_await ctx.sync();
  });
  m.run();
  const MemSystem& mem = m.memsys();
  for (int c = 0; c < cfg.cores(); ++c) EXPECT_FALSE(mem.line_in_l1(c, line));
  for (int t = 0; t < cfg.active_tiles; ++t) {
    EXPECT_FALSE(mem.line_in_l2(t, line)) << "tile " << t;
    EXPECT_EQ(mem.state_in_tile(line, t), TileState::kI) << "tile " << t;
  }
  const LineEntry* e = mem.directory().find(line);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->l2_mask, 0u);
  EXPECT_EQ(e->owner, -1);
  EXPECT_FALSE(e->dirty);
  EXPECT_EQ(e->forward, -1);
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
