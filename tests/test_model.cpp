// Tests of the capability-model layer: parameter fitting closes the loop
// with the simulator's configured ground truth, serialization round-trips,
// and both optimizers are exactly optimal against brute force.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "model/collective_model.hpp"
#include "model/dissemination_opt.hpp"
#include "model/fit.hpp"
#include "model/params.hpp"
#include "model/tree_opt.hpp"

namespace capmem::model {
namespace {

using sim::knl7210;
using sim::MachineConfig;
using sim::MemKind;

// One shared fitted model for the whole file (fitting costs ~1 s).
const CapabilityModel& fitted() {
  static const CapabilityModel m = [] {
    bench::SuiteOptions o;
    o.run.iters = 21;
    o.remote_samples = 3;
    return fit_cache_model(knl7210(), o);
  }();
  return m;
}

TEST(Fit, RecoversConfiguredGroundTruth) {
  // The round-trip property: measure -> fit lands near the simulator's
  // (hidden) calibration constants. The fit layer never reads them.
  const MachineConfig cfg = knl7210();
  const CapabilityModel& m = fitted();
  EXPECT_NEAR(m.r_local, cfg.lat.l1_hit, 0.5);
  EXPECT_NEAR(m.r_tile, cfg.lat.l2_tile_m, 2.0);
  EXPECT_NEAR(m.r_l2, cfg.lat.l2_tile_e, 2.0);
  EXPECT_NEAR(m.r_remote, cfg.lat.remote_base + 20, 15.0);
  EXPECT_NEAR(m.r_mem_dram, cfg.lat.dram_service + 13, 12.0);
  EXPECT_NEAR(m.r_mem_mcdram, cfg.lat.mcdram_service + 13, 12.0);
  EXPECT_GT(m.contention.beta, 20.0);
  EXPECT_LT(m.contention.beta, 50.0);
  EXPECT_GT(m.contention.r2, 0.95);
}

TEST(Params, SaveLoadRoundTrip) {
  const CapabilityModel& m = fitted();
  std::stringstream ss;
  m.save(ss);
  const CapabilityModel back = CapabilityModel::load(ss);
  EXPECT_TRUE(back == m);
}

TEST(Params, SaveLoadRoundTripsEmptyAndSpacedMachineNames) {
  for (const std::string name : {"", "knl 38t", " padded  name "}) {
    CapabilityModel m;
    m.machine = name;
    m.r_remote = 123.5;
    std::stringstream ss;
    m.save(ss);
    const CapabilityModel back = CapabilityModel::load(ss);
    EXPECT_EQ(back.machine, name);
    EXPECT_TRUE(back == m) << '"' << name << '"';
  }
}

TEST(Params, SaveRejectsMachineNameWithNewline) {
  CapabilityModel m;
  m.machine = "knl\nr_local 1";
  std::stringstream ss;
  EXPECT_THROW(m.save(ss), CheckError);
}

// The error names the first missing key, the modes included.
void expect_missing_key(const std::string& text, const std::string& key) {
  std::stringstream ss(text);
  try {
    CapabilityModel::load(ss);
    ADD_FAILURE() << "loaded without '" << key << "'";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("missing model key '" + key + "'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Params, LoadRejectsMissingKeys) {
  expect_missing_key("cluster QUAD\nmemory flat\nr_local 3.8\n", "r_l2");
  expect_missing_key("machine knl\nmemory flat\nr_local 3.8\n", "cluster");
  expect_missing_key("machine knl\ncluster QUAD\nr_local 3.8\n", "memory");
}

// Loads the save() text of a named default model with `key`'s value replaced
// and expects a CheckError that names the key and says `why`.
void expect_load_error(const std::string& key, const std::string& value,
                       const std::string& why) {
  CapabilityModel m;
  m.machine = "knl7210";
  std::stringstream saved;
  m.save(saved);
  std::stringstream ss;
  for (std::string line; std::getline(saved, line);) {
    ss << (line.rfind(key + ' ', 0) == 0 ? key + ' ' + value : line) << '\n';
  }
  try {
    CapabilityModel::load(ss);
    ADD_FAILURE() << key << ' ' << value << " loaded";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
}

TEST(Params, LoadRejectsUnparsableValues) {
  expect_load_error("r_remote", "abc", "unparsable");
  expect_load_error("lat_dram", "-", "unparsable");
  expect_load_error("bw_dram_agg", "1e999", "out of range");
}

TEST(Params, LoadRejectsTrailingCharacters) {
  expect_load_error("r_remote", "1.5xyz", "trailing characters");
  expect_load_error("contention_beta", "2.0.1", "trailing characters");
}

TEST(Params, LoadRejectsNonFiniteValues) {
  expect_load_error("r_remote", "nan", "non-finite");
  expect_load_error("multiline_r2", "inf", "non-finite");
  expect_load_error("c2c_copy_gbps", "-inf", "non-finite");
}

// Seeded mutants of saved model texts: bit flips, truncations, splices of
// two models, and duplicated, dropped or rewritten lines. Each mutant either
// loads — and then re-saves to text that loads back to the same model and
// re-saves byte-identically — or throws CheckError. Any other exception
// (or, in the sanitizer build, any UB) fails.
TEST(Params, LoadSurvivesMutatedTexts) {
  std::vector<std::string> saved;
  {
    CapabilityModel a;
    a.machine = "knl7210";
    CapabilityModel b;
    b.machine = " knl 38t ";
    b.cluster = sim::ClusterMode::kSNC4;
    b.memory = sim::MemoryMode::kCache;
    b.r_local = 3.75;
    b.r_remote = 1.0 / 3.0;
    b.contention = {118.25, -31.5e-3, 0.987};
    b.multiline = {2.5e7, 4.9e-300, 1};
    b.bw_dram = {9.5, 81.125};
    b.has_mcdram = false;
    CapabilityModel c = b;
    c.machine = "";
    c.memory = sim::MemoryMode::kHybrid;
    c.lat_dram = 1e300;
    c.r_mem_mcdram = -0.0;
    for (const CapabilityModel* m : {&a, &b, &c}) {
      std::ostringstream os;
      m->save(os);
      saved.push_back(os.str());
    }
  }
  const std::vector<std::string> tokens = {
      "", " ", "nan", "-inf", "1e999", "1e-999", "0x1p3", "+1", "-0",
      "4e-320", "1.5.2", "SNC-4", "cache", "machine", "\t2"};

  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return bound == 0 ? 0 : (state >> 33) % bound;
  };
  const auto split_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string l; std::getline(is, l);) lines.push_back(l);
    return lines;
  };
  const auto join_lines = [](const std::vector<std::string>& lines) {
    std::string text;
    for (const std::string& l : lines) text += l + '\n';
    return text;
  };

  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string text = saved[next(saved.size())];
    const int nmut = 1 + static_cast<int>(next(3));
    for (int k = 0; k < nmut; ++k) {
      std::vector<std::string> lines = split_lines(text);
      switch (next(6)) {
        case 0:  // bit flip
          if (!text.empty()) {
            text[next(text.size())] ^= static_cast<char>(1u << next(8));
          }
          break;
        case 1:  // truncation
          text.resize(next(text.size() + 1));
          break;
        case 2: {  // splice: a prefix of this text, a suffix of another
          const std::string& other = saved[next(saved.size())];
          text = text.substr(0, next(text.size() + 1)) +
                 other.substr(next(other.size() + 1));
          break;
        }
        case 3:  // duplicated line
          if (!lines.empty()) {
            const std::size_t l = next(lines.size());
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                             next(lines.size() + 1)),
                         lines[l]);
            text = join_lines(lines);
          }
          break;
        case 4:  // dropped line
          if (!lines.empty()) {
            lines.erase(lines.begin() +
                        static_cast<std::ptrdiff_t>(next(lines.size())));
            text = join_lines(lines);
          }
          break;
        case 5:  // a line's value rewritten to an edge-case token
          if (!lines.empty()) {
            std::string& l = lines[next(lines.size())];
            l = l.substr(0, l.find(' ')) + ' ' + tokens[next(tokens.size())];
            text = join_lines(lines);
          }
          break;
      }
    }

    std::istringstream in(text);
    CapabilityModel m;
    try {
      m = CapabilityModel::load(in);
    } catch (const CheckError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << ":\n"
                    << text;
      continue;
    }
    ++loaded;
    try {
      std::ostringstream first;
      m.save(first);
      std::istringstream again(first.str());
      const CapabilityModel back = CapabilityModel::load(again);
      EXPECT_TRUE(back == m) << "mutant " << i << ":\n" << text;
      std::ostringstream second;
      back.save(second);
      EXPECT_EQ(second.str(), first.str()) << "mutant " << i;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " loaded but its re-save failed: "
                    << e.what() << ":\n"
                    << text;
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(loaded, 100);
  EXPECT_GT(rejected, 100);
}

TEST(Params, ContentionClampedBelowByRemote) {
  CapabilityModel m;
  m.r_remote = 100;
  m.contention.alpha = 10;
  m.contention.beta = 5;
  EXPECT_DOUBLE_EQ(m.t_contention(1), 100.0);   // clamp
  EXPECT_DOUBLE_EQ(m.t_contention(50), 260.0);  // linear law
}

TEST(BandwidthLaw, RampThenCap) {
  BandwidthLaw law{5.0, 80.0};
  EXPECT_DOUBLE_EQ(law.at_threads(1), 5.0);
  EXPECT_DOUBLE_EQ(law.at_threads(8), 40.0);
  EXPECT_DOUBLE_EQ(law.at_threads(64), 80.0);
  BandwidthLaw uncapped{5.0, 0.0};
  EXPECT_DOUBLE_EQ(uncapped.at_threads(64), 320.0);
}

// --- tree optimizer ---

// Brute force: exact minimum of Eq. 1 over all fanouts/partitions (with
// balanced splits, which is optimal given monotonicity).
double brute_tree(const CapabilityModel& m, int n, TreeKind kind,
                  MemKind buf) {
  if (n <= 1) return 0.0;
  double best = -1;
  for (int k = 1; k <= n - 1; ++k) {
    const int largest = (n - 1 + k - 1) / k;
    const double c =
        level_cost(m, kind, k, buf) + brute_tree(m, largest, kind, buf);
    if (best < 0 || c < best) best = c;
  }
  return best;
}

TEST(TreeOpt, MatchesBruteForce) {
  const CapabilityModel& m = fitted();
  for (int n : {2, 3, 5, 8, 13, 21, 32}) {
    const TunedTree t = optimize_tree(m, n, TreeKind::kBroadcast,
                                      MemKind::kMCDRAM);
    EXPECT_NEAR(t.predicted_ns,
                brute_tree(m, n, TreeKind::kBroadcast, MemKind::kMCDRAM),
                1e-6)
        << "n=" << n;
  }
}

TEST(TreeOpt, TreeCoversExactlyNNodes) {
  const CapabilityModel& m = fitted();
  for (int n = 1; n <= 40; ++n) {
    const TunedTree t =
        optimize_tree(m, n, TreeKind::kReduce, MemKind::kDDR);
    EXPECT_EQ(tree_nodes(t.root), n);
  }
}

TEST(TreeOpt, CostEvaluationMatchesPrediction) {
  const CapabilityModel& m = fitted();
  const TunedTree t =
      optimize_tree(m, 32, TreeKind::kBroadcast, MemKind::kMCDRAM);
  EXPECT_NEAR(tree_cost(m, t.root, TreeKind::kBroadcast, MemKind::kMCDRAM),
              t.predicted_ns, 1e-6);
}

TEST(TreeOpt, WorstAtLeastBest) {
  const CapabilityModel& m = fitted();
  const TunedTree t =
      optimize_tree(m, 32, TreeKind::kBroadcast, MemKind::kMCDRAM);
  EXPECT_GE(tree_cost(m, t.root, TreeKind::kBroadcast, MemKind::kMCDRAM,
                      /*worst=*/true),
            t.predicted_ns);
}

TEST(TreeOpt, CostMonotoneInSize) {
  const CapabilityModel& m = fitted();
  double prev = -1;
  for (int n = 1; n <= 38; ++n) {
    const double c =
        optimize_tree(m, n, TreeKind::kBroadcast, MemKind::kMCDRAM)
            .predicted_ns;
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(TreeOpt, HighContentionFlattensFanout) {
  CapabilityModel cheap = fitted();
  cheap.contention.beta = 0.0;
  cheap.contention.alpha = 0.0;
  CapabilityModel pricey = fitted();
  pricey.contention.beta *= 10.0;
  const int k_cheap =
      optimize_tree(cheap, 32, TreeKind::kBroadcast, MemKind::kMCDRAM)
          .root.fanout();
  const int k_pricey =
      optimize_tree(pricey, 32, TreeKind::kBroadcast, MemKind::kMCDRAM)
          .root.fanout();
  EXPECT_GE(k_cheap, k_pricey);  // contention punishes wide fan-out
}

TEST(TreeOpt, SingleNodeTreeIsFree) {
  const TunedTree t =
      optimize_tree(fitted(), 1, TreeKind::kBroadcast, MemKind::kDDR);
  EXPECT_DOUBLE_EQ(t.predicted_ns, 0.0);
  EXPECT_EQ(t.root.fanout(), 0);
}

TEST(TreeOpt, RenderContainsAllNodes) {
  const TunedTree t =
      optimize_tree(fitted(), 12, TreeKind::kReduce, MemKind::kDDR);
  const std::string s = render_tree(t.root);
  EXPECT_NE(s.find("11"), std::string::npos);  // last preorder id
  EXPECT_NE(s.find("(k="), std::string::npos);
}

// --- dissemination optimizer ---

TEST(DissOpt, RoundsFormula) {
  EXPECT_EQ(dissemination_rounds(1, 1), 0);
  EXPECT_EQ(dissemination_rounds(2, 1), 1);
  EXPECT_EQ(dissemination_rounds(64, 1), 6);
  EXPECT_EQ(dissemination_rounds(64, 3), 3);
  EXPECT_EQ(dissemination_rounds(65, 3), 4);
  EXPECT_EQ(dissemination_rounds(256, 3), 4);
}

TEST(DissOpt, MatchesBruteForce) {
  const CapabilityModel& m = fitted();
  for (int n : {2, 7, 16, 64, 200}) {
    const TunedDissemination d =
        optimize_dissemination(m, n, MemKind::kMCDRAM);
    double best = 1e18;
    for (int mm = 1; mm <= n - 1; ++mm) {
      best = std::min(best, dissemination_cost(m, n, mm, MemKind::kMCDRAM));
    }
    EXPECT_NEAR(d.predicted_ns, best, 1e-9) << n;
    EXPECT_EQ(d.rounds, dissemination_rounds(n, d.m));
  }
}

TEST(DissOpt, ReachabilityConstraintHolds) {
  const CapabilityModel& m = fitted();
  for (int n : {2, 5, 64, 256}) {
    const TunedDissemination d =
        optimize_dissemination(m, n, MemKind::kMCDRAM);
    double reach = 1;
    for (int j = 0; j < d.rounds; ++j) reach *= (d.m + 1);
    EXPECT_GE(reach, n);
  }
}

TEST(DissOpt, WorstAtLeastBest) {
  const CapabilityModel& m = fitted();
  const TunedDissemination d = optimize_dissemination(m, 64, MemKind::kDDR);
  EXPECT_GE(dissemination_cost_worst(m, 64, d.m, MemKind::kDDR),
            d.predicted_ns);
}

// --- collective model composition ---

TEST(CollectiveModel, LayoutScatterVsFill) {
  const ThreadLayout sc = layout_for(8, 32, 8, /*scatter=*/true);
  EXPECT_EQ(sc.tiles, 8);
  EXPECT_EQ(sc.threads_per_tile, 1);
  const ThreadLayout fl = layout_for(8, 32, 8, /*scatter=*/false);
  EXPECT_EQ(fl.tiles, 1);
  EXPECT_EQ(fl.threads_per_tile, 8);
}

TEST(CollectiveModel, BandsAreOrdered) {
  const CapabilityModel& m = fitted();
  const ThreadLayout lay = layout_for(64, 32, 8, true);
  for (const CostBand& band :
       {broadcast_band(m, lay, MemKind::kMCDRAM),
        reduce_band(m, lay, MemKind::kMCDRAM),
        barrier_band(m, lay, MemKind::kMCDRAM)}) {
    EXPECT_GT(band.best_ns, 0);
    EXPECT_GE(band.worst_ns, band.best_ns);
  }
}

TEST(CollectiveModel, IntraTileCostGrowsWithThreads) {
  const CapabilityModel& m = fitted();
  EXPECT_DOUBLE_EQ(intra_tile_cost(m, 1, TreeKind::kBroadcast), 0.0);
  EXPECT_LT(intra_tile_cost(m, 2, TreeKind::kBroadcast),
            intra_tile_cost(m, 8, TreeKind::kBroadcast));
}

}  // namespace
}  // namespace capmem::model
