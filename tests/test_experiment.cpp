#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "obs/registry.hpp"
#include "runtime/experiment.hpp"
#include "runtime/scenario.hpp"

namespace lifting::runtime {
namespace {

TEST(Experiment, HonestSystemDisseminatesAndScoresStayHealthy) {
  auto cfg = ScenarioConfig::small(50);
  cfg.duration = seconds(15.0);
  cfg.stream.duration = seconds(12.0);
  Experiment ex(cfg);
  ex.run();

  // Dissemination: every emitted chunk reaches (almost) every node. The
  // default 0.99 clear threshold allows zero misses over the ~25 eligible
  // chunks, and under infect-and-die a propose wave occasionally dies
  // before covering all 50 nodes — give each node one chunk of slack so
  // the assertion tests dissemination, not wave-death coin flips.
  gossip::PlaybackConfig playback;
  playback.clear_threshold = 0.95;
  const auto curve = ex.health_curve({5.0}, /*honest_only=*/true, playback);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_GT(curve[0].fraction_clear, 0.95);

  // Scores: nobody near the default η.
  const auto snap = ex.snapshot_scores();
  EXPECT_EQ(snap.freeriders.size(), 0u);
  for (const auto s : snap.honest) {
    EXPECT_GT(s, -5.0);
  }
  const auto det = ex.detection_at(-9.75);
  EXPECT_DOUBLE_EQ(det.false_positive, 0.0);
}

TEST(Experiment, FreeridersScoreBelowHonestNodes) {
  auto cfg = ScenarioConfig::small(60);
  cfg.duration = seconds(20.0);
  cfg.stream.duration = seconds(18.0);
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.3);
  Experiment ex(cfg);
  ex.run();

  const auto snap = ex.snapshot_scores();
  ASSERT_GT(snap.freeriders.size(), 0u);
  ASSERT_GT(snap.honest.size(), 0u);
  double honest_mean = 0.0;
  for (const auto s : snap.honest) honest_mean += s;
  honest_mean /= static_cast<double>(snap.honest.size());
  double cheat_mean = 0.0;
  for (const auto s : snap.freeriders) cheat_mean += s;
  cheat_mean /= static_cast<double>(snap.freeriders.size());
  // Packet-level runs accumulate blames slower than the §6 steady-state
  // model (fewer requests per period than |R|·f); after r=40 periods the
  // separation is a few points and grows with time.
  EXPECT_LT(cheat_mean, honest_mean - 1.5);
  EXPECT_GT(honest_mean, -1.0);  // no loss => honest essentially unblamed
}

TEST(Experiment, ExpulsionRemovesFreeridersFromMembership) {
  auto cfg = ScenarioConfig::small(60);
  cfg.duration = seconds(35.0);
  cfg.stream.duration = seconds(33.0);
  cfg.freerider_fraction = 0.10;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.6);
  cfg.expulsion_enabled = true;
  cfg.lifting.eta = -4.0;
  cfg.lifting.score_check_probability = 0.5;
  cfg.lifting.min_periods_before_detection = 10;
  Experiment ex(cfg);
  ex.run();

  // At least one freerider was expelled, and no honest node was.
  std::size_t freeriders_expelled = 0;
  for (const auto& rec : ex.expulsions()) {
    EXPECT_TRUE(rec.was_freerider)
        << "honest node " << rec.victim.value() << " expelled";
    if (rec.was_freerider) ++freeriders_expelled;
  }
  EXPECT_GT(freeriders_expelled, 0u);
  for (const auto id : ex.freerider_ids()) {
    if (!ex.directory().is_live(id)) continue;
    // Still-live freeriders should at least be deep in the red.
    EXPECT_LT(ex.true_score(id), 0.0);
  }
}

TEST(Experiment, OverheadAccountingSeparatesClasses) {
  auto cfg = ScenarioConfig::small(40);
  cfg.duration = seconds(10.0);
  cfg.stream.duration = seconds(8.0);
  Experiment ex(cfg);
  ex.run();
  const auto report = ex.overhead();
  EXPECT_GT(report.dissemination_bytes, 0u);
  EXPECT_GT(report.verification_bytes, 0u);
  // Verification traffic is small relative to the stream (Table 5 ballpark:
  // single-digit percent at p_dcc=1 for a real stream; generous bound here).
  EXPECT_LT(report.verification_ratio(), 0.35);
}

/// overhead() and collect_metrics both read the Mailer's send tally: the
/// report's three sums are its bytes summed per kind_class, and the
/// registry's sent.<kind>.bytes entries add up to its total.
TEST(Experiment, OverheadSumsTheSendTallyPerClass) {
  auto cfg = ScenarioConfig::small(30);
  cfg.duration = seconds(8.0);
  cfg.stream.duration = seconds(6.0);
  cfg.freerider_fraction = 0.2;
  cfg.lifting.audit_probability = 0.3;
  cfg.lifting.audit_warmup_periods = 6;
  Experiment ex(cfg);
  ex.run();

  std::array<std::uint64_t, 4> by_class{};
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < ex.sent().size(); ++k) {
    by_class[static_cast<std::size_t>(gossip::kind_class(k))] +=
        ex.sent()[k].bytes;
    total += ex.sent()[k].bytes;
  }
  const auto report = ex.overhead();
  using gossip::KindClass;
  EXPECT_EQ(report.dissemination_bytes,
            by_class[static_cast<std::size_t>(KindClass::kDissemination)]);
  EXPECT_EQ(report.verification_bytes,
            by_class[static_cast<std::size_t>(KindClass::kVerification)]);
  EXPECT_EQ(report.audit_bytes,
            by_class[static_cast<std::size_t>(KindClass::kAudit)]);
  EXPECT_GT(report.dissemination_bytes, 0u);
  EXPECT_GT(report.verification_bytes, 0u);
  EXPECT_GT(report.audit_bytes, 0u);

  obs::Registry reg;
  ex.collect_metrics(reg);
  std::uint64_t folded = 0;
  for (const auto& e : reg.entries()) {
    if (e.name.starts_with("sent.") && e.name.ends_with(".bytes")) {
      folded += e.counter;
    }
  }
  EXPECT_EQ(folded, total);
}

/// The memory layer table: a deployment that never audits keeps no audit
/// trail, so its two logs hold no pages, while an auditing one holds both.
/// The logs every deployment keeps hold pages either way.
TEST(Experiment, AuditTrailHoldsPagesOnlyWhereAuditsRun) {
  auto quiet = ScenarioConfig::small(30);
  quiet.duration = seconds(8.0);
  quiet.stream.duration = seconds(6.0);
  ASSERT_EQ(quiet.lifting.audit_probability, 0.0);
  auto audited = quiet;
  audited.lifting.audit_probability = 0.3;
  audited.lifting.audit_warmup_periods = 6;
  for (const auto* cfg : {&quiet, &audited}) {
    Experiment ex(*cfg);
    ex.run();
    obs::Registry reg;
    ex.collect_metrics(reg);
    if (cfg == &quiet) {
      EXPECT_EQ(reg.counter("mem.pages.sent_history"), 0u);
      EXPECT_EQ(reg.counter("mem.pages.asker_log"), 0u);
    } else {
      EXPECT_GT(reg.counter("mem.pages.sent_history"), 0u);
      EXPECT_GT(reg.counter("mem.pages.asker_log"), 0u);
    }
    EXPECT_GT(reg.counter("mem.pages.received_log"), 0u);
    EXPECT_GT(reg.counter("mem.pages.delivery_times"), 0u);
  }
}

TEST(Experiment, LiftingDisabledSendsNoVerificationTraffic) {
  auto cfg = ScenarioConfig::small(40);
  cfg.lifting_enabled = false;
  cfg.duration = seconds(10.0);
  cfg.stream.duration = seconds(8.0);
  Experiment ex(cfg);
  ex.run();
  const auto report = ex.overhead();
  EXPECT_GT(report.dissemination_bytes, 0u);
  EXPECT_EQ(report.verification_bytes, 0u);
  EXPECT_EQ(report.audit_bytes, 0u);
  const auto curve = ex.health_curve({5.0});
  EXPECT_GT(curve[0].fraction_clear, 0.95);
}

TEST(Experiment, DeterministicUnderSameSeed) {
  auto cfg = ScenarioConfig::small(30);
  cfg.duration = seconds(8.0);
  cfg.stream.duration = seconds(6.0);
  Experiment a(cfg);
  a.run();
  Experiment b(cfg);
  b.run();
  EXPECT_EQ(a.simulator().events_processed(), b.simulator().events_processed());
  EXPECT_EQ(a.network_stats().datagrams_sent, b.network_stats().datagrams_sent);
  const auto sa = a.snapshot_scores();
  const auto sb = b.snapshot_scores();
  ASSERT_EQ(sa.honest.size(), sb.honest.size());
  for (std::size_t i = 0; i < sa.honest.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa.honest[i], sb.honest[i]);
  }
}

TEST(Experiment, SeedChangesRun) {
  auto cfg = ScenarioConfig::small(30);
  cfg.duration = seconds(6.0);
  cfg.stream.duration = seconds(5.0);
  Experiment a(cfg);
  a.run();
  cfg.seed = 8888;
  Experiment b(cfg);
  b.run();
  EXPECT_NE(a.network_stats().datagrams_sent,
            b.network_stats().datagrams_sent);
}

TEST(Experiment, ResumableRunUntil) {
  auto cfg = ScenarioConfig::small(30);
  cfg.duration = seconds(10.0);
  cfg.stream.duration = seconds(9.0);
  Experiment ex(cfg);
  ex.run_until(kSimEpoch + seconds(4.0));
  const auto mid = ex.network_stats().datagrams_sent;
  EXPECT_GT(mid, 0u);
  ex.run_until(kSimEpoch + seconds(10.0));
  EXPECT_GT(ex.network_stats().datagrams_sent, mid);
}

TEST(ScenarioConfig, PlanetlabPresetMatchesPaper) {
  const auto cfg = ScenarioConfig::planetlab();
  EXPECT_EQ(cfg.nodes, 300u);
  EXPECT_EQ(cfg.gossip.fanout, 7u);
  EXPECT_EQ(cfg.gossip.period, milliseconds(500));
  EXPECT_EQ(cfg.lifting.managers, 25u);
  // η is the paper's -9.75 mapped to this deployment's interaction density
  // (see EXPERIMENTS.md); it must stay strictly negative and of the same
  // order.
  EXPECT_LT(cfg.lifting.eta, -2.0);
  EXPECT_GT(cfg.lifting.eta, -9.75);
  EXPECT_NEAR(cfg.freerider_behavior.delta_fanout, 1.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(cfg.freerider_behavior.delta_propose, 0.1);
  EXPECT_DOUBLE_EQ(cfg.freerider_behavior.delta_serve, 0.1);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ScenarioConfig, ValidationRejectsNonsense) {
  auto cfg = ScenarioConfig::small();
  cfg.freerider_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ScenarioConfig::small();
  cfg.nodes = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace lifting::runtime
