#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "common/rng.hpp"
#include "membership/directory.hpp"
#include "membership/rps.hpp"
#include "membership/sampler.hpp"
#include "stats/entropy.hpp"
#include "stats/summary.hpp"

namespace lifting::membership {
namespace {

TEST(Directory, StartsWithAllLive) {
  Directory dir(10);
  EXPECT_EQ(dir.live_count(), 10u);
  EXPECT_EQ(dir.initial_size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(dir.is_live(NodeId{i}));
  }
}

TEST(Directory, ExpelRemovesAndRecords) {
  Directory dir(5);
  dir.expel(NodeId{2});
  EXPECT_FALSE(dir.is_live(NodeId{2}));
  EXPECT_EQ(dir.live_count(), 4u);
  ASSERT_EQ(dir.expelled().size(), 1u);
  EXPECT_EQ(dir.expelled()[0], NodeId{2});
  dir.expel(NodeId{2});  // idempotent
  EXPECT_EQ(dir.live_count(), 4u);
  EXPECT_EQ(dir.expelled().size(), 1u);
}

TEST(Directory, PositionsStayConsistentAfterExpulsions) {
  Directory dir(20);
  dir.expel(NodeId{0});
  dir.expel(NodeId{19});
  dir.expel(NodeId{7});
  for (const auto id : dir.live()) {
    EXPECT_EQ(dir.live()[dir.position_of(id)], id);
  }
  EXPECT_EQ(dir.live_count(), 17u);
}

TEST(SampleUniform, DistinctAndExcludesSelf) {
  Directory dir(30);
  Pcg32 rng{11};
  std::vector<std::uint32_t> scratch;
  std::vector<NodeId> picks;
  for (int t = 0; t < 100; ++t) {
    sample_uniform_into(rng, dir, NodeId{5}, 7, scratch, picks);
    ASSERT_EQ(picks.size(), 7u);
    std::set<NodeId> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 7u);
    EXPECT_FALSE(unique.contains(NodeId{5}));
    for (const auto p : picks) EXPECT_TRUE(dir.is_live(p));
  }
}

TEST(SampleUniform, CapsAtPopulation) {
  Directory dir(4);
  Pcg32 rng{12};
  std::vector<std::uint32_t> scratch;
  std::vector<NodeId> picks;
  sample_uniform_into(rng, dir, NodeId{0}, 10, scratch, picks);
  EXPECT_EQ(picks.size(), 3u);
}

TEST(SampleUniform, IsUniformOverCandidates) {
  Directory dir(20);
  Pcg32 rng{13};
  std::unordered_map<NodeId, int> counts;
  std::vector<std::uint32_t> scratch;
  std::vector<NodeId> picks;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    sample_uniform_into(rng, dir, NodeId{3}, 4, scratch, picks);
    for (const auto p : picks) ++counts[p];
  }
  EXPECT_EQ(counts.find(NodeId{3}), counts.end());
  // Each of the 19 candidates appears with probability 4/19 per trial.
  for (const auto& [id, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 4.0 / 19.0, 0.015);
  }
}

TEST(SampleUniform, NeverPicksExpelled) {
  Directory dir(10);
  dir.expel(NodeId{4});
  Pcg32 rng{14};
  std::vector<std::uint32_t> scratch;
  std::vector<NodeId> picks;
  for (int t = 0; t < 200; ++t) {
    sample_uniform_into(rng, dir, NodeId{0}, 5, scratch, picks);
    for (const auto p : picks) EXPECT_NE(p, NodeId{4});
  }
}

TEST(SampleBiased, HitsCoalitionAtRatePm) {
  Directory dir(200);
  Pcg32 rng{15};
  std::vector<NodeId> coalition;
  for (std::uint32_t i = 1; i <= 30; ++i) coalition.push_back(NodeId{i});
  int coalition_picks = 0;
  int total = 0;
  for (int t = 0; t < 4000; ++t) {
    const auto picks =
        sample_biased(rng, dir, NodeId{1}, 7, coalition, 0.5);
    ASSERT_EQ(picks.size(), 7u);
    std::set<NodeId> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), picks.size());
    for (const auto p : picks) {
      ++total;
      if (p != NodeId{1} &&
          std::find(coalition.begin(), coalition.end(), p) !=
              coalition.end()) {
        ++coalition_picks;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(coalition_picks) / total, 0.5, 0.03);
}

TEST(SampleBiased, ZeroBiasAvoidsCoalitionEntirely) {
  // §6.3.2's model: a slot picks a coalition member with probability p_m
  // and an honest node otherwise — at p_m = 0 the coalition is never hit
  // (the engine switches to the plain uniform sampler when bias is off).
  Directory dir(100);
  Pcg32 rng{16};
  std::vector<NodeId> coalition{NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4},
                                NodeId{5}};
  int coalition_picks = 0;
  for (int t = 0; t < 2000; ++t) {
    for (const auto p :
         sample_biased(rng, dir, NodeId{1}, 6, coalition, 0.0)) {
      if (std::find(coalition.begin(), coalition.end(), p) !=
          coalition.end()) {
        ++coalition_picks;
      }
    }
  }
  EXPECT_EQ(coalition_picks, 0);
}

TEST(SampleBiased, CoalitionSmallerThanFanoutFallsBack) {
  Directory dir(50);
  Pcg32 rng{17};
  std::vector<NodeId> coalition{NodeId{1}, NodeId{2}};
  const auto picks = sample_biased(rng, dir, NodeId{1}, 8, coalition, 1.0);
  ASSERT_EQ(picks.size(), 8u);
  std::set<NodeId> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 8u);
}

// ------------------------------------------------------------------- RPS

TEST(Rps, ViewsStayBoundedAndSelfFree) {
  RpsNetwork rps(200, 12, 6, 42);
  rps.run_rounds(20);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto& view = rps.view_of(NodeId{i});
    EXPECT_LE(view.size(), 12u);
    EXPECT_GE(view.size(), 6u);
    EXPECT_EQ(std::count(view.begin(), view.end(), NodeId{i}), 0)
        << "node " << i << " holds itself in its view";
    std::set<NodeId> unique(view.begin(), view.end());
    EXPECT_EQ(unique.size(), view.size()) << "duplicate view entries";
  }
}

TEST(Rps, InDegreeConcentratesAfterMixing) {
  RpsNetwork rps(300, 10, 5, 43);
  rps.run_rounds(30);
  const auto degrees = rps.in_degrees();
  lifting::stats::Summary s;
  for (const auto d : degrees) s.add(static_cast<double>(d));
  // Total pointers = n·view_size, so the mean in-degree is ~view_size;
  // after mixing the spread is tight (no starved or celebrity nodes).
  EXPECT_NEAR(s.mean(), 10.0, 1.0);
  EXPECT_GT(s.min(), 2.0);
  EXPECT_LT(s.max(), 25.0);
}

TEST(Rps, SamplingApproachesUniformAcrossRounds) {
  // Sample one peer per node per round, re-shuffling between rounds; the
  // aggregate distribution over targets approaches uniform.
  RpsNetwork rps(150, 10, 5, 44);
  rps.run_rounds(15);
  Pcg32 rng{45};
  std::vector<std::uint64_t> counts(150, 0);
  for (int round = 0; round < 60; ++round) {
    for (std::uint32_t i = 0; i < 150; ++i) {
      ++counts[rps.sample(NodeId{i}, rng).value()];
    }
    rps.run_round();
  }
  const double h = lifting::stats::shannon_entropy(counts);
  // Uniform over 150 targets would be log2(150) = 7.23; demand within
  // 2% of it.
  EXPECT_GT(h, 0.98 * std::log2(150.0));
}

TEST(Rps, HistoriesBuiltFromRpsPassTheGammaCheck) {
  // §5.3: "the peer selection service underlying the gossip protocol may
  // not be perfect, the threshold must be tolerant to small deviation".
  // Build n_h·f-entry histories by sampling from shuffling RPS views and
  // verify their entropy stays above a γ calibrated for full membership
  // minus a small tolerance.
  const std::uint32_t n = 500;
  RpsNetwork rps(n, 12, 6, 46);
  rps.run_rounds(20);
  Pcg32 rng{47};
  lifting::stats::Summary entropies;
  for (std::uint32_t node = 0; node < 40; ++node) {
    std::vector<NodeId> history;
    for (int period = 0; period < 30; ++period) {
      const auto picks = rps.sample_distinct(NodeId{node}, rng, 5);
      history.insert(history.end(), picks.begin(), picks.end());
      rps.run_round();
    }
    entropies.add(lifting::stats::multiset_entropy<NodeId>(
        {history.data(), history.size()}));
  }
  // Full-membership histories of 150 entries over 500 nodes measure ~7.0;
  // RPS sampling must stay within the tolerance band γ would use.
  EXPECT_GT(entropies.min(), 6.3);
}

// ----------------------------------------------------------- RPS + churn

TEST(Rps, LeaveDecaysFromAllViews) {
  RpsNetwork rps(120, 10, 5, 48);
  rps.run_rounds(10);
  rps.leave(NodeId{7});
  EXPECT_FALSE(rps.alive(NodeId{7}));
  EXPECT_TRUE(rps.view_of(NodeId{7}).empty());
  rps.run_rounds(10);
  // Stale entries are purged lazily during shuffles; after a few rounds no
  // live view references the dead node.
  const auto degrees = rps.in_degrees();
  EXPECT_EQ(degrees[7], 0u);
  for (std::uint32_t i = 0; i < 120; ++i) {
    if (i == 7) continue;
    const auto& view = rps.view_of(NodeId{i});
    EXPECT_EQ(std::count(view.begin(), view.end(), NodeId{7}), 0)
        << "node " << i << " still references the departed node";
  }
}

TEST(Rps, JoinSpreadsThroughShuffles) {
  RpsNetwork rps(120, 10, 5, 49);
  rps.run_rounds(10);
  rps.join(NodeId{120});
  EXPECT_TRUE(rps.alive(NodeId{120}));
  EXPECT_GE(rps.view_of(NodeId{120}).size(), 5u);  // bootstrapped view
  rps.run_rounds(12);
  const auto degrees = rps.in_degrees();
  // The joiner offers itself on every shuffle it initiates; after mixing
  // it is referenced like any other node.
  EXPECT_GT(degrees[120], 2u);
}

TEST(Rps, RejoinEpochPreventsStaleResurrection) {
  RpsNetwork rps(100, 8, 4, 50);
  rps.run_rounds(8);
  EXPECT_EQ(rps.epoch_of(NodeId{5}), 1u);
  rps.leave(NodeId{5});
  // Entries learned under epoch 1 are stale the moment the node rejoins as
  // epoch 2 — they cannot count for (or resurrect) the new incarnation.
  rps.join(NodeId{5});
  EXPECT_EQ(rps.epoch_of(NodeId{5}), 2u);
  EXPECT_TRUE(rps.alive(NodeId{5}));
  const auto degrees_now = rps.in_degrees();
  EXPECT_EQ(degrees_now[5], 0u) << "old-epoch entries counted for rejoiner";
  rps.run_rounds(12);
  const auto degrees_later = rps.in_degrees();
  EXPECT_GT(degrees_later[5], 2u) << "rejoiner failed to spread";
}

}  // namespace
}  // namespace lifting::membership
