#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "lifting/managers.hpp"
#include "membership/rps.hpp"
#include "membership/sampler.hpp"
#include "runtime/experiment.hpp"
#include "runtime/runner.hpp"

/// Churn-resilient accountability (DESIGN.md §7): manager handoff,
/// divergent membership views, and rejoin.
///
///   * handoff determinism — the post-handoff manager assignment is a pure
///     function of (config, seed, event history): identical across thread
///     counts, after Experiment::reset, and regardless of row
///     materialization order;
///   * ledger rows migrate exactly once — the departing manager's store is
///     zeroed by the move and total blame knowledge is conserved;
///   * rejoin epochs never alias a prior incarnation — every (id, epoch)
///     pair observed over a run is unique and epochs are monotone;
///   * divergent views — under a propagation lag observers disagree about
///     a leaver inside the lag window and converge after it; view-aware
///     sampling can return a recent leaver;
///   * the RPS dissemination curve justifies the lag model: join coverage
///     climbs over shuffle rounds, leave references decay.

namespace lifting::runtime {
namespace {

/// A scenario that forces manager churn: heavy leave/crash + rejoin over a
/// small population with LiFTinG and handoff on.
ScenarioConfig resilience_config() {
  auto cfg = ScenarioConfig::small(50);
  cfg.freerider_fraction = 0.1;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.5);
  cfg.duration = seconds(16.0);
  cfg.stream.duration = seconds(14.0);
  cfg.manager_handoff = true;
  cfg.manager_handoff_delay = milliseconds(300);
  cfg.view_propagation = milliseconds(400);
  ScenarioTimeline::PoissonChurn churn;
  churn.arrival_fraction_per_min = 0.6;
  churn.departure_fraction_per_min = 1.2;
  churn.crash_fraction = 0.5;
  churn.rejoin_fraction = 0.5;
  churn.rejoin_delay_mean = seconds(2.0);
  churn.start = seconds(1.0);
  churn.end = seconds(14.0);
  cfg.timeline = ScenarioTimeline::poisson_churn(churn, cfg.nodes, cfg.seed);
  return cfg;
}

TEST(ChurnResilience, HandoffDeterminismAcrossRunsAndReset) {
  const auto cfg = resilience_config();

  Experiment a(cfg);
  a.run();
  ASSERT_GT(a.handoffs().size(), 0u) << "scenario never exercised handoff";
  ASSERT_GT(a.rejoins().size(), 0u) << "scenario never exercised rejoin";

  Experiment b(cfg);
  b.run();

  // Fresh-vs-fresh: identical handoff history and identical final rows.
  ASSERT_EQ(a.handoffs().size(), b.handoffs().size());
  for (std::size_t i = 0; i < a.handoffs().size(); ++i) {
    EXPECT_EQ(a.handoffs()[i].target, b.handoffs()[i].target);
    EXPECT_EQ(a.handoffs()[i].departed, b.handoffs()[i].departed);
    EXPECT_EQ(a.handoffs()[i].replacement, b.handoffs()[i].replacement);
  }
  EXPECT_EQ(a.handoff_promotions(), b.handoff_promotions());

  // Reset-vs-fresh: rewinding a deployment that already executed handoffs
  // must clear the promotion state (assignment rebind) and reproduce the
  // identical history.
  b.reset(cfg);
  b.run();
  ASSERT_EQ(a.handoffs().size(), b.handoffs().size());
  for (std::size_t i = 0; i < a.handoffs().size(); ++i) {
    EXPECT_EQ(a.handoffs()[i].replacement, b.handoffs()[i].replacement);
  }
  EXPECT_EQ(a.handoff_promotions(), b.handoff_promotions());
  const auto qa = a.quorum_stats();
  const auto qb = b.quorum_stats();
  EXPECT_EQ(qa.min, qb.min);
  EXPECT_DOUBLE_EQ(qa.mean, qb.mean);
}

TEST(ChurnResilience, HandoffIdenticalAcrossThreadCounts) {
  // The same resilience scenario executed via the parallel runner at 1 and
  // 4 threads: per-spec digests must be bit-identical (worker lanes reuse
  // deployments via reset, so this also covers reset-after-handoff).
  std::vector<RunSpec> specs;
  for (std::uint64_t s = 0; s < 6; ++s) {
    auto cfg = resilience_config();
    const std::uint64_t seed = derive_task_seed(0xC0DE, s);
    ScenarioTimeline::PoissonChurn churn;
    churn.arrival_fraction_per_min = 0.6;
    churn.departure_fraction_per_min = 1.2;
    churn.crash_fraction = 0.5;
    churn.rejoin_fraction = 0.5;
    churn.rejoin_delay_mean = seconds(2.0);
    churn.start = seconds(1.0);
    churn.end = seconds(14.0);
    cfg.timeline = ScenarioTimeline::poisson_churn(churn, cfg.nodes, seed);
    specs.emplace_back(std::move(cfg), seed, "resilience");
  }
  ParallelRunner serial(1);
  ParallelRunner parallel(4);
  const auto ref = serial.run_digests(specs);
  const auto par = parallel.run_digests(specs);
  ASSERT_EQ(ref.size(), par.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], par[i]) << "spec " << i;
  }
}

TEST(ChurnResilience, LedgerRowsMigrateExactlyOnce) {
  const auto cfg = resilience_config();
  Experiment ex(cfg);
  ex.run();

  std::size_t migrated = 0;
  for (const auto& handoff : ex.handoffs()) {
    if (!handoff.migrated) continue;
    ++migrated;
    // The move zeroed the departing store: a second take returns nothing.
    auto& from = ex.agent(handoff.departed).manager_store();
    EXPECT_EQ(from.raw_blame_total(handoff.target), 0.0)
        << "departed manager " << handoff.departed
        << " still holds a row for " << handoff.target;
  }
  ASSERT_GT(migrated, 0u) << "no handoff carried ledger state";

  // No (target, departed incarnation) pair is ever handed off twice — a
  // manager that rejoins, gets re-promoted and departs again is a new
  // incarnation, hence the epoch in the key.
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  for (const auto& handoff : ex.handoffs()) {
    const auto key = std::make_tuple(handoff.target.value(),
                                     handoff.departed.value(),
                                     handoff.departed_epoch);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate handoff of target " << handoff.target
        << " from manager " << handoff.departed << " epoch "
        << handoff.departed_epoch;
  }
}

TEST(ChurnResilience, HandoffRestoresQuorum) {
  // With handoff on, every live target's present-manager quorum returns to
  // full strength after the handoff delay; with it off, departures leave
  // permanent holes.
  auto cfg = resilience_config();
  cfg.view_propagation = Duration::zero();  // isolate the handoff effect
  Experiment with(cfg);
  with.run();
  ASSERT_GT(with.handoffs().size(), 0u);
  const auto quorum_with = with.quorum_stats();

  cfg.manager_handoff = false;
  Experiment without(cfg);
  without.run();
  EXPECT_EQ(without.handoffs().size(), 0u);
  const auto quorum_without = without.quorum_stats();

  EXPECT_GT(quorum_with.mean, quorum_without.mean);
  EXPECT_GE(quorum_with.min, quorum_without.min);
  // Handoff keeps the mean quorum within one manager of full strength
  // (only departures younger than the handoff delay are uncovered).
  EXPECT_GE(quorum_with.mean,
            static_cast<double>(cfg.lifting.managers) - 1.0);
}

TEST(ChurnResilience, RejoinEpochsNeverAliasAPriorIncarnation) {
  const auto cfg = resilience_config();
  Experiment ex(cfg);
  ex.run();
  ASSERT_GT(ex.rejoins().size(), 0u);

  // Every rejoin bumped the directory epoch past every prior incarnation
  // of that id, and the (id, epoch) pairs across all rejoins are unique.
  std::set<std::pair<std::uint32_t, std::uint32_t>> incarnations;
  for (const auto& rejoin : ex.rejoins()) {
    EXPECT_GE(rejoin.epoch, 2u);
    EXPECT_TRUE(incarnations
                    .insert(std::make_pair(rejoin.node.value(), rejoin.epoch))
                    .second)
        << "aliased incarnation of node " << rejoin.node;
    EXPECT_TRUE(ex.ever_rejoined(rejoin.node));
  }
  // A currently-live rejoiner's directory epoch equals its latest rejoin
  // record; a re-departed one is at least that.
  for (const auto& rejoin : ex.rejoins()) {
    EXPECT_GE(ex.directory().epoch_of(rejoin.node), rejoin.epoch);
  }
}

TEST(ChurnResilience, RejoinFreshPolicyRestartsScores) {
  // A freerider that accrued blame, departed and rejoined under kFresh must
  // read better than the same history under kCarried.
  auto cfg = ScenarioConfig::small(40);
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.7);
  cfg.duration = seconds(16.0);
  cfg.stream.duration = seconds(15.0);
  // Depart one known freerider mid-run and bring it back shortly after.
  Experiment probe(cfg);
  ASSERT_FALSE(probe.freerider_ids().empty());
  const NodeId victim = probe.freerider_ids().front();
  cfg.timeline.leave_at(seconds(8.0), victim);
  cfg.timeline.rejoin_at(seconds(10.0), victim);

  // Inspect the managers' rows just after the rejoin applies, before the
  // new incarnation accrues fresh blame (it keeps freeriding, so END-of-run
  // scores would conflate the restart with the re-accrual).
  const TimePoint just_after = kSimEpoch + seconds(10.05);

  cfg.rejoin_scores = ScenarioConfig::RejoinScores::kFresh;
  Experiment fresh(cfg);
  fresh.run_until(just_after);
  ASSERT_EQ(fresh.rejoins().size(), 1u);
  const double fresh_score = fresh.true_score(victim);

  cfg.rejoin_scores = ScenarioConfig::RejoinScores::kCarried;
  Experiment carried(cfg);
  carried.run_until(just_after);
  ASSERT_EQ(carried.rejoins().size(), 1u);
  const double carried_score = carried.true_score(victim);

  // kFresh wiped the blame rows at the rejoin instant; kCarried kept the
  // previous incarnation's record, so its min-vote read stays depressed.
  EXPECT_GT(fresh_score, carried_score);
  double fresh_raw = 0.0;
  double carried_raw = 0.0;
  for (std::uint32_t m = 0; m < cfg.nodes; ++m) {
    fresh_raw += fresh.agent(NodeId{m}).manager_store()
                     .raw_blame_total(victim);
    carried_raw += carried.agent(NodeId{m}).manager_store()
                       .raw_blame_total(victim);
  }
  EXPECT_LT(fresh_raw, carried_raw);
}

TEST(ChurnResilience, FreshPolicySurvivesAPendingHandoff) {
  // Regression: a target that rejoins (kFresh) while one of its managers
  // sits in the departed-but-not-yet-handed-off window must NOT have the
  // previous incarnation's blame resurrected when the handoff later
  // migrates that manager's row — the fresh restart applies to departed
  // managers' stores too (they are live memory under in-place retirement).
  auto cfg = ScenarioConfig::small(40);
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.7);
  cfg.duration = seconds(12.0);
  cfg.stream.duration = seconds(11.0);
  cfg.manager_handoff = true;
  cfg.manager_handoff_delay = milliseconds(500);

  Experiment probe(cfg);
  ASSERT_FALSE(probe.freerider_ids().empty());
  const NodeId victim = probe.freerider_ids().front();
  const auto base_managers = lifting::managers_of(
      victim, cfg.nodes, cfg.lifting.managers, cfg.seed);
  NodeId manager = base_managers.front();
  for (const auto m : base_managers) {
    if (m != NodeId{0}) {
      manager = m;
      break;
    }
  }
  ASSERT_NE(manager, NodeId{0});

  // victim gone at 7.5; manager departs 8.0 (handoff due 8.5); victim
  // rejoins 8.2 — inside the manager's handoff window.
  cfg.timeline.leave_at(seconds(7.5), victim);
  cfg.timeline.leave_at(seconds(8.0), manager);
  cfg.timeline.rejoin_at(seconds(8.2), victim);

  const auto replacement_blame = [&](ScenarioConfig run_cfg) {
    Experiment ex(std::move(run_cfg));
    // Just past the handoff, before the new incarnation can accrue blame
    // (its first verification deadlines land >= 8.2 + dv_timeout).
    ex.run_until(kSimEpoch + seconds(8.55));
    for (const auto& handoff : ex.handoffs()) {
      if (handoff.target == victim && handoff.departed == manager) {
        return ex.agent(handoff.replacement)
            .manager_store()
            .raw_blame_total(victim);
      }
    }
    ADD_FAILURE() << "expected a handoff of the victim's row";
    return 0.0;
  };

  auto fresh_cfg = cfg;
  fresh_cfg.rejoin_scores = ScenarioConfig::RejoinScores::kFresh;
  EXPECT_EQ(replacement_blame(std::move(fresh_cfg)), 0.0);

  auto carried_cfg = cfg;
  carried_cfg.rejoin_scores = ScenarioConfig::RejoinScores::kCarried;
  EXPECT_GT(replacement_blame(std::move(carried_cfg)), 0.0);
}

TEST(ChurnResilience, BouncingManagerCannotFlushItsLedgerRows) {
  // Regression: a manager that leaves and rejoins before its handoff
  // delay elapses must have its rows migrated at the rejoin instant — the
  // rejoin rebuilds its Agent (fresh, empty stores), so a cancelled
  // handoff would have silently erased all blame it held.
  auto cfg = ScenarioConfig::small(40);
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.7);
  cfg.duration = seconds(12.0);
  cfg.stream.duration = seconds(11.0);
  cfg.manager_handoff = true;
  cfg.manager_handoff_delay = seconds(1.0);

  Experiment probe(cfg);
  ASSERT_FALSE(probe.freerider_ids().empty());
  const NodeId victim = probe.freerider_ids().front();
  const auto base_managers = lifting::managers_of(
      victim, cfg.nodes, cfg.lifting.managers, cfg.seed);
  NodeId manager = base_managers.front();
  for (const auto m : base_managers) {
    if (m != NodeId{0} && m != victim) {
      manager = m;
      break;
    }
  }

  // The manager bounces: gone at 8.0, back at 8.3 — well inside the 1 s
  // handoff window, so the scheduled handoff timer is epoch-cancelled.
  cfg.timeline.leave_at(seconds(8.0), manager);
  cfg.timeline.rejoin_at(seconds(8.3), manager);

  Experiment ex(cfg);
  ex.run_until(kSimEpoch + seconds(8.4));
  bool migrated = false;
  double carried_blame = 0.0;
  for (const auto& handoff : ex.handoffs()) {
    if (handoff.departed != manager || handoff.target != victim) continue;
    migrated = handoff.migrated;
    carried_blame = ex.agent(handoff.replacement)
                        .manager_store()
                        .raw_blame_total(victim);
  }
  EXPECT_TRUE(migrated)
      << "bounce cancelled the handoff and destroyed the ledger row";
  EXPECT_GT(carried_blame, 0.0);
  // The bounced manager itself restarted empty and was demoted from the
  // victim's quorum (sticky handoff).
  EXPECT_EQ(ex.agent(manager).manager_store().raw_blame_total(victim), 0.0);
}

/// A scenario that reliably commits and applies expulsions: aggressive
/// static freeriders under score policing, short propagation, no churn —
/// every quorum change comes from the expulsions themselves.
ScenarioConfig expulsion_config() {
  auto cfg = ScenarioConfig::small(40);
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.7);
  cfg.duration = seconds(16.0);
  cfg.stream.duration = seconds(15.0);
  cfg.lifting.eta = -2.0;
  cfg.lifting.score_check_probability = 0.3;
  cfg.lifting.min_periods_before_detection = 8;
  cfg.expulsion_enabled = true;
  cfg.expulsion_propagation = milliseconds(500);
  cfg.manager_handoff = true;
  cfg.expulsion_handoff = true;
  cfg.manager_handoff_delay = milliseconds(300);
  return cfg;
}

TEST(ChurnResilience, ExpelledManagerHandoffPromotesAndMigratesOnce) {
  // A committed-and-applied expulsion vacates the victim's manager slots
  // exactly like a departure: replacements promoted, ledger rows migrated
  // (zeroing the source), each (target, victim incarnation) at most once.
  Experiment ex(expulsion_config());
  ex.run();
  ASSERT_FALSE(ex.expulsions().empty()) << "scenario never expelled anyone";

  std::size_t expelled_handoffs = 0;
  std::size_t migrated = 0;
  for (const auto& handoff : ex.handoffs()) {
    ASSERT_TRUE(handoff.expelled)
        << "churn-free scenario produced a departure handoff";
    ++expelled_handoffs;
    EXPECT_TRUE(ex.is_expelled_member(handoff.departed));
    EXPECT_FALSE(ex.is_departed(handoff.departed))
        << "expulsion is not churn — the victim never 'departed'";
    if (handoff.migrated) {
      ++migrated;
      EXPECT_EQ(
          ex.agent(handoff.departed).manager_store().raw_blame_total(
              handoff.target),
          0.0)
          << "expelled manager " << handoff.departed
          << " still holds the row for " << handoff.target;
    }
  }
  EXPECT_GT(expelled_handoffs, 0u)
      << "no expelled victim ever sat in a manager row";
  EXPECT_GT(migrated, 0u) << "no expelled-manager row carried ledger state";

  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  for (const auto& handoff : ex.handoffs()) {
    const auto key = std::make_tuple(handoff.target.value(),
                                     handoff.departed.value(),
                                     handoff.departed_epoch);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate expelled handoff of target " << handoff.target
        << " from " << handoff.departed;
  }
}

TEST(ChurnResilience, ExpulsionHandoffSharesTheDepartureMask) {
  // An expelled victim that later also appears in a churn departure must
  // not migrate twice: the expulsion handoff and the departure handoff
  // share the assignment's departed mask, so whichever lands first wins.
  auto cfg = expulsion_config();
  Experiment probe(cfg);
  probe.run();
  ASSERT_FALSE(probe.expulsions().empty());
  const NodeId victim = probe.expulsions().front().victim;
  const auto victim_handoffs = [&](const Experiment& ex) {
    std::size_t count = 0;
    for (const auto& handoff : ex.handoffs()) {
      if (handoff.departed == victim) ++count;
    }
    return count;
  };
  const std::size_t reference = victim_handoffs(probe);
  ASSERT_GT(reference, 0u) << "probe victim never sat in a manager row";

  // Same run, but the timeline also tries to remove the victim afterwards
  // (a churn generator is blind to runtime expulsions). The leave is a
  // no-op — the victim is already out of the membership — and no second
  // handoff or migration may happen.
  cfg.timeline.leave_at(seconds(15.0), victim);
  Experiment ex(cfg);
  ex.run();
  EXPECT_EQ(victim_handoffs(ex), reference);
  EXPECT_FALSE(ex.is_departed(victim));
}

TEST(ChurnResilience, QuorumStatsCountExpelledManagersAbsent) {
  // The pre-fix accounting counted an expelled manager as present forever;
  // now the hole is visible — and expulsion handoff is what closes it.
  auto cfg = expulsion_config();
  Experiment with(cfg);
  with.run();
  ASSERT_FALSE(with.expulsions().empty());
  const auto quorum_with = with.quorum_stats();

  cfg.expulsion_handoff = false;
  Experiment without(cfg);
  without.run();
  ASSERT_FALSE(without.expulsions().empty());
  EXPECT_TRUE(without.handoffs().empty())
      << "expulsion_handoff off must not promote anyone in a churn-free run";
  const auto quorum_without = without.quorum_stats();

  // Off: every expelled manager is a permanent hole, so the mean quorum
  // sits strictly below full strength. On: promotions close the holes
  // (up to expulsions younger than the handoff delay).
  EXPECT_LT(quorum_without.mean,
            static_cast<double>(cfg.lifting.managers));
  EXPECT_GT(quorum_with.mean, quorum_without.mean);
  EXPECT_GE(quorum_with.min, quorum_without.min);
}

TEST(ChurnResilience, ExpulsionHandoffDeterministicAcrossThreadsAndReset) {
  // Expulsion handoff is scheduled protocol state like everything else:
  // bit-identical at any thread count and across Experiment::reset.
  std::vector<RunSpec> specs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    auto cfg = expulsion_config();
    specs.emplace_back(std::move(cfg), derive_task_seed(0xE89A, s),
                       "expulsion");
  }
  ParallelRunner serial(1);
  ParallelRunner parallel(4);
  const auto ref = serial.run_digests(specs);
  const auto par = parallel.run_digests(specs);
  ASSERT_EQ(ref.size(), par.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], par[i]) << "spec " << i;
  }

  const auto cfg = expulsion_config();
  Experiment ex(cfg);
  ex.run();
  const auto fresh_handoffs = ex.handoffs();
  const auto fresh_expulsions = ex.expulsions().size();
  ASSERT_GT(fresh_handoffs.size(), 0u);
  ex.reset(cfg);
  ex.run();
  ASSERT_EQ(ex.handoffs().size(), fresh_handoffs.size());
  for (std::size_t i = 0; i < fresh_handoffs.size(); ++i) {
    EXPECT_EQ(ex.handoffs()[i].target, fresh_handoffs[i].target);
    EXPECT_EQ(ex.handoffs()[i].departed, fresh_handoffs[i].departed);
    EXPECT_EQ(ex.handoffs()[i].replacement, fresh_handoffs[i].replacement);
    EXPECT_EQ(ex.handoffs()[i].expelled, fresh_handoffs[i].expelled);
  }
  EXPECT_EQ(ex.expulsions().size(), fresh_expulsions);
}

TEST(ChurnResilience, CommittedExpulsionBlocksRejoin) {
  // Regression: a node whose expulsion was committed but departed before
  // the propagation delay applied it must not rejoin (the indictment
  // stands), and the latched commit must not leave a loophole.
  auto cfg = ScenarioConfig::small(40);
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.7);
  cfg.duration = seconds(16.0);
  cfg.stream.duration = seconds(15.0);
  cfg.lifting.eta = -2.0;
  cfg.lifting.score_check_probability = 0.3;
  cfg.lifting.min_periods_before_detection = 8;
  cfg.expulsion_enabled = true;
  cfg.expulsion_propagation = seconds(8.0);  // wide commit->apply window

  // Probe: find a freerider whose expulsion the managers have committed
  // by t = 10 s (the expulsion itself would only apply much later).
  Experiment probe(cfg);
  probe.run_until(kSimEpoch + seconds(10.0));
  NodeId victim = kAutoNodeId;
  for (const auto id : probe.freerider_ids()) {
    if (probe.majority_expelled(id)) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kAutoNodeId)
      << "no committed expulsion by t=10 — tune the scenario";

  // Same run, but the indicted node slips away at 10 s and tries to come
  // back: the rejoin must be refused.
  cfg.timeline.leave_at(seconds(10.0), victim);
  cfg.timeline.rejoin_at(seconds(11.0), victim);
  Experiment ex(cfg);
  ex.run();
  EXPECT_TRUE(ex.rejoins().empty()) << "indicted node rejoined";
  EXPECT_FALSE(ex.directory().is_live(victim));
  EXPECT_TRUE(ex.is_departed(victim));
}

TEST(ChurnResilience, DivergentViewsDisagreeWithinLagWindow) {
  membership::Directory directory(40);
  directory.set_view_model(seconds(1.0), /*seed=*/7);
  const NodeId leaver{5};
  const TimePoint left = kSimEpoch + seconds(10.0);
  directory.leave(leaver, left);

  // Inside the lag window at least one observer still sees the leaver and
  // at least one already does not; after the window everyone agrees.
  std::size_t still_sees = 0;
  std::size_t knows_gone = 0;
  const TimePoint mid = left + milliseconds(300);
  for (std::uint32_t o = 0; o < 40; ++o) {
    if (o == leaver.value()) continue;
    if (directory.sees(NodeId{o}, leaver, mid)) {
      ++still_sees;
    } else {
      ++knows_gone;
    }
  }
  EXPECT_GT(still_sees, 0u);
  EXPECT_GT(knows_gone, 0u);
  for (std::uint32_t o = 0; o < 40; ++o) {
    EXPECT_FALSE(directory.sees(NodeId{o}, leaver, left + seconds(1.1)));
  }
  // The leaver itself always knows it is gone.
  EXPECT_FALSE(directory.sees(leaver, leaver, mid));

  // Joins become visible late the same way.
  const NodeId joiner{40};
  const TimePoint joined = kSimEpoch + seconds(20.0);
  directory.join(joiner, joined);
  std::size_t sees_joiner = 0;
  for (std::uint32_t o = 0; o < 40; ++o) {
    if (directory.sees(NodeId{o}, joiner, joined + milliseconds(300))) {
      ++sees_joiner;
    }
  }
  EXPECT_GT(sees_joiner, 0u);
  EXPECT_LT(sees_joiner, 40u);
  for (std::uint32_t o = 0; o < 40; ++o) {
    EXPECT_TRUE(
        directory.sees(NodeId{o}, joiner, joined + seconds(1.1)));
  }
}

TEST(ChurnResilience, ViewSamplingCanReturnARecentLeaver) {
  membership::Directory directory(30);
  directory.set_view_model(seconds(2.0), /*seed=*/11);
  const NodeId leaver{7};
  const TimePoint left = kSimEpoch + seconds(5.0);
  directory.leave(leaver, left);

  // Find an observer whose view still contains the leaver just after the
  // departure, and check the view-aware sampler can select it while the
  // plain sampler never does.
  auto rng = derive_rng(3, 3);
  std::vector<std::uint32_t> scratch;
  std::vector<NodeId> picks;
  bool sampled_leaver = false;
  for (std::uint32_t o = 1; o < 30 && !sampled_leaver; ++o) {
    const NodeId observer{o};
    if (!directory.sees(observer, leaver, left + milliseconds(100))) continue;
    for (int trial = 0; trial < 64 && !sampled_leaver; ++trial) {
      membership::sample_view_into(rng, directory, observer, 5,
                                   left + milliseconds(100), scratch, picks);
      sampled_leaver = std::find(picks.begin(), picks.end(), leaver) !=
                       picks.end();
    }
  }
  EXPECT_TRUE(sampled_leaver);

  std::vector<NodeId> uniform;
  membership::sample_uniform_into(rng, directory, NodeId{1}, 29, scratch,
                                  uniform);
  EXPECT_EQ(std::find(uniform.begin(), uniform.end(), leaver),
            uniform.end());

  // With the model off, sample_view_into degrades to sample_uniform_into
  // with the identical draw sequence.
  membership::Directory plain(30);
  auto rng_a = derive_rng(5, 9);
  auto rng_b = derive_rng(5, 9);
  std::vector<NodeId> via_view;
  std::vector<NodeId> via_uniform;
  membership::sample_view_into(rng_a, plain, NodeId{2}, 6, kSimEpoch,
                               scratch, via_view);
  membership::sample_uniform_into(rng_b, plain, NodeId{2}, 6, scratch,
                                  via_uniform);
  EXPECT_EQ(via_view, via_uniform);
}

TEST(ChurnResilience, RpsDisseminationJustifiesTheLagModel) {
  // The Directory's per-observer lag stands in for RPS dissemination; the
  // shuffling service itself must show the shape the model assumes: join
  // coverage climbing over rounds, leave references decaying over rounds.
  membership::RpsNetwork rps(200, /*view_size=*/12, /*shuffle_length=*/6,
                             /*seed=*/42);
  rps.run_rounds(30);  // mix the bootstrap topology

  const NodeId joiner{200};
  rps.join(joiner);
  const double at_join = rps.coverage_of(joiner);
  rps.run_rounds(3);
  const double after_3 = rps.coverage_of(joiner);
  rps.run_rounds(12);
  const double after_15 = rps.coverage_of(joiner);
  EXPECT_LT(at_join, 0.05);
  EXPECT_GT(after_3, at_join);
  EXPECT_GT(after_15, 0.04);  // in-degree plateau ≈ view_size / n = 6%

  const NodeId leaver{17};
  const double before_leave = rps.coverage_of(leaver);
  EXPECT_GT(before_leave, 0.0);
  rps.leave(leaver);
  rps.run_rounds(1);
  const double just_after = rps.coverage_of(leaver);
  rps.run_rounds(20);
  const double later = rps.coverage_of(leaver);
  EXPECT_LE(later, just_after);
  EXPECT_LT(later, before_leave * 0.5)
      << "stale leave references failed to decay";
}

}  // namespace
}  // namespace lifting::runtime
