#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/formulas.hpp"
#include "lifting/managers.hpp"

namespace lifting {
namespace {

LiftingParams test_params() {
  LiftingParams p;
  p.fanout = 12;
  p.period = milliseconds(500);
  p.nominal_request_size = 4;
  p.loss_estimate = 0.07;
  p.managers = 25;
  p.history_window = seconds(25.0);
  return p;
}

TEST(ManagerAssignment, DeterministicAndExcludesTarget) {
  const auto a = managers_of(NodeId{17}, 300, 25, 999);
  const auto b = managers_of(NodeId{17}, 300, 25, 999);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 25u);
  std::set<NodeId> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 25u);
  EXPECT_FALSE(unique.contains(NodeId{17}));
}

TEST(ManagerAssignment, DifferentTargetsDifferentManagers) {
  const auto a = managers_of(NodeId{1}, 300, 25, 999);
  const auto b = managers_of(NodeId{2}, 300, 25, 999);
  EXPECT_NE(a, b);
}

TEST(ManagerAssignment, CapsAtPopulation) {
  const auto mgrs = managers_of(NodeId{3}, 10, 25, 1);
  EXPECT_EQ(mgrs.size(), 9u);
}

TEST(ManagerStore, FreshNodeScoresZero) {
  ManagerStore store(test_params(), kSimEpoch);
  const auto now = kSimEpoch + seconds(25.0);  // r = 50
  // No blames: compensation makes the normalized score positive (the node
  // beat the loss expectation) — definitely not below any negative η.
  EXPECT_GT(store.normalized_score(NodeId{1}, now), 0.0);
}

TEST(ManagerStore, ScoreMatchesEq6) {
  const auto params = test_params();
  ManagerStore store(params, kSimEpoch);
  const double b_tilde = analysis::expected_wrongful_blame(params.model());
  const auto now = kSimEpoch + params.period * 50;  // r = 50
  // Apply exactly the expected wrongful blame each period: s must be 0.
  store.apply_blame(NodeId{1}, 50.0 * b_tilde,
                    gossip::BlameReason::kDirectVerification);
  EXPECT_NEAR(store.normalized_score(NodeId{1}, now), 0.0, 1e-9);
  // A freerider collecting twice the expectation lands at -b̃.
  store.apply_blame(NodeId{2}, 100.0 * b_tilde,
                    gossip::BlameReason::kTestimony);
  EXPECT_NEAR(store.normalized_score(NodeId{2}, now), -b_tilde, 1e-9);
}

TEST(ManagerStore, ApccBlamesCompensatedByEq4) {
  const auto params = test_params();
  ManagerStore store(params, kSimEpoch);
  const double apcc_expected = analysis::expected_blame_apcc(
      params.model(), params.history_periods());
  EXPECT_NEAR(apcc_expected, 0.07 * 50 * 12, 1e-9);
  const auto now = kSimEpoch + params.period * 50;
  const double before = store.normalized_score(NodeId{1}, now);
  // An audit reporting exactly the expected number of loss-induced denials
  // must not move the score.
  store.apply_blame(NodeId{1}, apcc_expected,
                    gossip::BlameReason::kAposterioriCheck);
  EXPECT_NEAR(store.normalized_score(NodeId{1}, now), before, 1e-9);
  // Anything beyond the expectation costs score one-for-one.
  store.apply_blame(NodeId{1}, apcc_expected + 50.0,
                    gossip::BlameReason::kAposterioriCheck);
  EXPECT_NEAR(store.normalized_score(NodeId{1}, now), before - 1.0, 1e-9);
}

TEST(ManagerStore, PeriodsClampToOne) {
  ManagerStore store(test_params(), kSimEpoch);
  EXPECT_DOUBLE_EQ(store.periods_in_system(kSimEpoch), 1.0);
  EXPECT_DOUBLE_EQ(
      store.periods_in_system(kSimEpoch + milliseconds(100)), 1.0);
  EXPECT_DOUBLE_EQ(store.periods_in_system(kSimEpoch + seconds(5.0)), 10.0);
}

TEST(ManagerStore, ExpulsionIsSticky) {
  ManagerStore store(test_params(), kSimEpoch);
  EXPECT_FALSE(store.expelled(NodeId{4}));
  EXPECT_TRUE(store.mark_expelled(NodeId{4}));
  EXPECT_FALSE(store.mark_expelled(NodeId{4}));  // second mark not "first"
  EXPECT_TRUE(store.expelled(NodeId{4}));
}

TEST(ManagerStore, TableGrowsWithTheTargetsItJudges) {
  // No pre-sizing: a store that judged no one holds no table, and rows
  // grow with the distinct targets blamed. A row is a 4 B key and a 24 B
  // record. table_bytes() reports the pool blocks that hold them:
  // capacity doubling and power-of-two blocks keep it under four times the
  // rows' bytes, once past the 64 B smallest block.
  constexpr std::size_t kRowBytes = 4 + 24;
  ManagerStore store(test_params(), kSimEpoch);
  EXPECT_EQ(store.table_bytes(), 0u);
  EXPECT_EQ(store.rows(), 0u);
  store.apply_blame(NodeId{0}, 1.0, gossip::BlameReason::kDirectVerification);
  EXPECT_EQ(store.table_bytes(), 64u + 64u);  // one smallest block each
  for (std::uint32_t t = 1; t < 300; ++t) {
    store.apply_blame(NodeId{t}, 1.0, gossip::BlameReason::kDirectVerification);
    // A repeat blame adds no row.
    store.apply_blame(NodeId{t / 2}, 1.0,
                      gossip::BlameReason::kDirectVerification);
    ASSERT_EQ(store.rows(), t + 1u);
    ASSERT_LE(store.table_bytes(),
              std::max<std::size_t>(128, 4 * store.rows() * kRowBytes))
        << t;
    if (store.rows() == 32) {
      // 768 B of records sit in a 1,024 B block, beside 128 B of keys.
      EXPECT_EQ(store.table_bytes(), 128u + 1024u);
    }
  }
}

TEST(ManagerStore, NormalizationDilutesOldBlames) {
  const auto params = test_params();
  ManagerStore store(params, kSimEpoch);
  store.apply_blame(NodeId{1}, 500.0, gossip::BlameReason::kInvalidAck);
  const double early =
      store.normalized_score(NodeId{1}, kSimEpoch + params.period * 10);
  const double late =
      store.normalized_score(NodeId{1}, kSimEpoch + params.period * 100);
  // The same absolute blame weighs less once amortized over more periods.
  EXPECT_LT(early, late);
}

}  // namespace
}  // namespace lifting
