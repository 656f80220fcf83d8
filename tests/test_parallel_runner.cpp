#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "faults/plan.hpp"
#include "obs/registry.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"

/// Determinism under parallelism (DESIGN.md §6): sharding independent
/// Experiments across a worker pool must be invisible in the results —
/// per-run digests and task-ordered aggregates are byte-identical across
/// thread counts, a spec's outcome does not depend on which worker lane
/// (with whatever deployment history) executes it, and Experiment::reset
/// is bit-identical to fresh construction. This suite is the
/// ThreadSanitizer CI target: any hidden shared mutable state between
/// concurrent Experiments fails loudly here.

namespace lifting::runtime {
namespace {

/// A fast scenario (~0.1 s simulated work) with enough machinery on —
/// losses, weak links, freeriders, churn on odd indices — that hidden
/// sharing anywhere in the stack would skew a counter.
RunSpec quick_spec(std::uint32_t index) {
  auto cfg = ScenarioConfig::small(36 + (index % 3) * 8);
  cfg.duration = seconds(6.0);
  cfg.stream.duration = seconds(5.0);
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.5);
  cfg.link.loss = 0.01;
  cfg.weak_fraction = 0.1;
  cfg.weak_link = cfg.link;
  cfg.weak_link.loss = 0.05;
  cfg.weak_link.upload_capacity_bps = 5e6;
  const std::uint64_t seed = derive_task_seed(0xD15EA5EULL, index);
  if (index % 2 == 1) {
    ScenarioTimeline::PoissonChurn churn;
    churn.arrival_fraction_per_min = 0.5;
    churn.departure_fraction_per_min = 0.5;
    churn.crash_fraction = 0.5;
    churn.freerider_fraction = 0.1;
    churn.freerider_behavior = cfg.freerider_behavior;
    churn.start = seconds(1.0);
    churn.end = seconds(5.0);
    cfg.timeline = ScenarioTimeline::poisson_churn(churn, cfg.nodes, seed);
  }
  return RunSpec{std::move(cfg), seed};
}

std::vector<RunSpec> quick_specs(std::uint32_t count) {
  std::vector<RunSpec> specs;
  for (std::uint32_t i = 0; i < count; ++i) specs.push_back(quick_spec(i));
  return specs;
}

void expect_same_digests(const std::vector<RunDigest>& a,
                         const std::vector<RunDigest>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << what << ": digest of run " << i
                              << " differs";
  }
}

TEST(ParallelRunner, DigestsAreByteIdenticalAcrossThreadCounts) {
  const auto specs = quick_specs(5);
  ParallelRunner serial(1);
  const auto reference = serial.run_digests(specs);
  ASSERT_EQ(reference.size(), specs.size());
  // Non-trivial runs (the digest actually pins something).
  EXPECT_GT(reference[0].events, 0u);
  EXPECT_GT(reference[0].honest_scored, 0u);

  for (const unsigned threads : {2u, 4u}) {
    ParallelRunner runner(threads);
    EXPECT_EQ(runner.threads(), threads);
    const auto parallel = runner.run_digests(specs);
    expect_same_digests(reference, parallel,
                        threads == 2 ? "2 threads" : "4 threads");
    // The task-ordered reduce is bit-identical too (double sums included).
    RunDigest serial_total;
    RunDigest parallel_total;
    for (const auto& d : reference) serial_total.accumulate(d);
    for (const auto& d : parallel) parallel_total.accumulate(d);
    EXPECT_TRUE(serial_total == parallel_total);
  }
}

TEST(ParallelRunner, SameSpecTwiceConcurrentlyIsIdentical) {
  const auto one = quick_spec(1);  // churny: the harder re-entrancy case
  const std::vector<RunSpec> twice{one, one};
  ParallelRunner runner(2);
  const auto digests = runner.run_digests(twice);
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_TRUE(digests[0] == digests[1]);

  ParallelRunner serial(1);
  const auto alone = serial.run_digests({one});
  EXPECT_TRUE(digests[0] == alone[0]);
}

TEST(ParallelRunner, SweepWorkloadDigestsMatchAcrossThreadCounts) {
  // A slice of the real sweep workload (the bench measures the full set).
  const auto specs = scenario_sweep_specs(4);
  ParallelRunner serial(1);
  ParallelRunner pair(2);
  expect_same_digests(serial.run_digests(specs), pair.run_digests(specs),
                      "sweep slice");
}

TEST(ExperimentReset, MatchesFreshConstructionBitForBit) {
  const auto spec_a = quick_spec(0);
  const auto spec_b = quick_spec(1);  // different n, churn timeline

  // Reference: fresh deployments.
  Experiment fresh_a(spec_a.config);
  fresh_a.run();
  const auto digest_a = RunDigest::of(fresh_a);
  Experiment fresh_b(spec_b.config);
  fresh_b.run();
  const auto digest_b = RunDigest::of(fresh_b);

  // One deployment, rewound across configs: b after a, then a again.
  Experiment reused(spec_a.config);
  reused.run();
  EXPECT_TRUE(RunDigest::of(reused) == digest_a);
  reused.reset(spec_b.config);
  reused.run();
  EXPECT_TRUE(RunDigest::of(reused) == digest_b) << "reset a -> b";
  reused.reset(spec_a.config);
  reused.run();
  EXPECT_TRUE(RunDigest::of(reused) == digest_a) << "reset b -> a";
}

TEST(ExperimentReset, SeedOnlyResetReseedsTheWholeDeployment) {
  auto cfg = quick_spec(0).config;
  const std::uint64_t s1 = 0xABCDEFULL;

  auto fresh_cfg = cfg;
  fresh_cfg.seed = s1;
  Experiment fresh(fresh_cfg);
  fresh.run();
  const auto want = RunDigest::of(fresh);

  Experiment reused(cfg);  // built and run under the original seed...
  reused.run();
  // Different seeds genuinely produce different runs (the digest is not
  // trivially invariant under reseeding).
  EXPECT_FALSE(RunDigest::of(reused) == want);
  reused.reset(s1);  // ...then rewound to s1
  reused.run();
  EXPECT_TRUE(RunDigest::of(reused) == want);
}

/// quick_spec(0) with every counter family added since the fault/audit
/// PRs actually exercised: a FaultPlan firing all four fault paths at the
/// transport seam, and entropy audits over the reliable-UDP channel.
RunSpec faulty_audited_spec() {
  auto spec = quick_spec(0);
  auto& cfg = spec.config;
  faults::FaultPlan plan;
  plan.p_good_to_bad = 0.05;
  plan.p_bad_to_good = 0.3;
  plan.loss_bad = 0.8;
  plan.duplicate_probability = 0.02;
  plan.delay_spike_probability = 0.02;
  plan.delay_spike_min = milliseconds(5);
  plan.delay_spike_max = milliseconds(30);
  plan.reorder_probability = 0.02;
  plan.reorder_delay = milliseconds(10);
  cfg.faults = plan;
  cfg.lifting.audit_channel = LiftingParams::AuditChannel::kReliableUdp;
  if (cfg.lifting.audit_probability == 0.0) {
    cfg.lifting.audit_probability = 0.3;
    cfg.lifting.audit_warmup_periods = 6;
  }
  return spec;
}

/// Slot-by-slot equality of two folded registries: the same names in the
/// same order with the same values.
void expect_same_registry(const obs::Registry& want,
                          const obs::Registry& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& w = want.entries()[i];
    const auto& g = got.entries()[i];
    EXPECT_EQ(w.name, g.name) << "registry order diverged at slot " << i;
    EXPECT_EQ(w.counter, g.counter) << "counter leaked across reset: "
                                    << w.name;
    EXPECT_EQ(w.gauge, g.gauge) << "gauge leaked across reset: " << w.name;
  }
}

/// The reset audit for the counters added since the transport-seam fault
/// and reliable-audit PRs: fault stats, audit-channel totals and the
/// engine duplicate counters must come back from Experiment::reset exactly
/// as from fresh construction. Compared through collect_metrics, which
/// folds every scattered family into one registry — so a counter leaking
/// across reset fails by name.
TEST(ExperimentReset, FaultAndAuditCountersMatchFreshConstruction) {
  const auto spec = faulty_audited_spec();

  Experiment fresh(spec.config);
  fresh.run();
  // The scenario must actually exercise the audited families, or the
  // equality below would vacuously pass on zeros.
  const auto faults = fresh.fault_stats();
  EXPECT_GT(faults.dropped(), 0u);
  EXPECT_GT(faults.duplicated + faults.delayed + faults.reordered, 0u);
  EXPECT_GT(fresh.audit_channel_totals().sends, 0u);
  obs::Registry want;
  fresh.collect_metrics(want);
  const auto want_digest = RunDigest::of(fresh);

  // Run an unrelated churny spec first, then reset into the faulty one.
  Experiment reused(quick_spec(1).config);
  reused.run();
  reused.reset(spec.config);
  reused.run();
  obs::Registry got;
  reused.collect_metrics(got);

  EXPECT_TRUE(RunDigest::of(reused) == want_digest);
  expect_same_registry(want, got);
}

/// Resetting a LiFTinG deployment into a LiFTinG-off config must leave no
/// agent behind: a stale agent in a reused node slot would still observe
/// its new engine and answer LiFTinG traffic.
TEST(ExperimentReset, LiftingOffAfterLiftingOnMatchesFreshConstruction) {
  auto on = ScenarioConfig::small(16);
  on.duration = seconds(6.0);
  on.stream.duration = seconds(5.0);
  on.freerider_fraction = 0.25;
  auto off = on;
  off.lifting_enabled = false;

  Experiment fresh(off);
  fresh.run();
  obs::Registry want;
  fresh.collect_metrics(want);

  Experiment reused(on);
  reused.run();
  ASSERT_GT(reused.sent()[gossip::kind_index<gossip::BlameMsg>()].count, 0u);
  reused.reset(off);
  reused.run();
  obs::Registry got;
  reused.collect_metrics(got);

  EXPECT_TRUE(RunDigest::of(reused) == RunDigest::of(fresh));
  // No LiFTinG kind the first run sent may survive into the listing.
  expect_same_registry(want, got);
}

/// The audit trail follows the config through reset, because build()
/// rebuilds the agents: an auditing run reset into a non-auditing config
/// drops the trail, and a reset back engages it again. Each run matches
/// fresh construction of its config, digest and registry alike.
TEST(ExperimentReset, AuditTrailFollowsTheConfigAcrossResets) {
  auto audited = ScenarioConfig::small(16);
  audited.duration = seconds(6.0);
  audited.stream.duration = seconds(5.0);
  audited.freerider_fraction = 0.25;
  audited.lifting.audit_probability = 0.3;
  audited.lifting.audit_warmup_periods = 4;
  auto quiet = audited;
  quiet.lifting.audit_probability = 0.0;

  const auto trails = [](Experiment& ex) {
    std::size_t engaged = 0;
    for (std::uint32_t i = 0; i < ex.population(); ++i) {
      engaged += ex.agent(NodeId{i}).audit_trail() != nullptr ? 1 : 0;
    }
    return engaged;
  };
  const auto expect_fresh = [](Experiment& reused, const ScenarioConfig& cfg) {
    Experiment fresh(cfg);
    fresh.run();
    EXPECT_TRUE(RunDigest::of(reused) == RunDigest::of(fresh));
    obs::Registry want;
    fresh.collect_metrics(want);
    obs::Registry got;
    reused.collect_metrics(got);
    expect_same_registry(want, got);
  };

  Experiment reused(audited);
  EXPECT_EQ(trails(reused), 16u);
  reused.run();
  ASSERT_GT(
      reused.sent()[gossip::kind_index<gossip::AuditRequestMsg>()].count, 0u);
  expect_fresh(reused, audited);

  reused.reset(quiet);
  EXPECT_EQ(trails(reused), 0u);
  reused.run();
  expect_fresh(reused, quiet);

  reused.reset(audited);
  EXPECT_EQ(trails(reused), 16u);
  reused.run();
  expect_fresh(reused, audited);
}

TEST(ExperimentReset, ResetAfterWindDownDrainsClean) {
  const auto spec = quick_spec(3);  // churny
  Experiment ex(spec.config);
  ex.run();
  ex.wind_down();
  EXPECT_EQ(ex.network().in_flight(), 0u);
  const auto first = RunDigest::of(ex);

  ex.reset();
  ex.run();
  ex.wind_down();
  EXPECT_EQ(ex.network().in_flight(), 0u) << "pool leak across reset";
  EXPECT_EQ(ex.simulator().pending_events(), 0u);
  EXPECT_TRUE(RunDigest::of(ex) == first) << "identical repetition";
}

TEST(ParallelRunner, MapCollectsResultsInTaskOrder) {
  ParallelRunner runner(4);
  const auto out = runner.map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, FirstTaskExceptionPropagatesByIndex) {
  ParallelRunner runner(4);
  try {
    runner.for_each(64, [](std::size_t i, unsigned) {
      if (i % 7 == 3) {  // lowest failing index is 3
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
}

TEST(ParallelRunner, TaskSeedDerivationIsPureAndSpread) {
  EXPECT_EQ(derive_task_seed(42, 0), derive_task_seed(42, 0));
  EXPECT_NE(derive_task_seed(42, 0), derive_task_seed(42, 1));
  EXPECT_NE(derive_task_seed(42, 0), derive_task_seed(43, 0));
}

}  // namespace
}  // namespace lifting::runtime
