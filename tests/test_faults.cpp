#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "faults/injector.hpp"
#include "lifting/managers.hpp"
#include "lifting/params.hpp"
#include "net/codec.hpp"
#include "net/udp_transport.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire_scenario.hpp"
#include "sim/simulator.hpp"

/// Deterministic fault injection at the transport seam (DESIGN.md §11):
/// inert-by-default (the determinism goldens in test_determinism run with
/// the injector in the pipeline and are NOT re-pinned), bit-identical
/// under any thread count and across Experiment::reset, and idempotent
/// under transport-level duplication when the dedup machinery is armed.

namespace lifting::runtime {
namespace {

ScenarioConfig fault_fixture() {
  auto cfg = ScenarioConfig::small(60);
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.5);
  cfg.link.loss = 0.02;
  return cfg;
}

faults::FaultPlan everything_plan() {
  faults::FaultPlan plan;
  plan.p_good_to_bad = 0.02;
  plan.p_bad_to_good = 0.25;
  plan.loss_good = 0.01;
  plan.loss_bad = 0.6;
  plan.delay_spike_probability = 0.01;
  plan.delay_spike_min = milliseconds(20);
  plan.delay_spike_max = milliseconds(120);
  plan.duplicate_probability = 0.02;
  plan.reorder_probability = 0.02;
  plan.reorder_delay = milliseconds(40);
  faults::PartitionWindow w;
  w.start = seconds(4.0);
  w.end = seconds(6.0);
  w.modulus = 7;
  w.remainder = 2;
  plan.partitions.push_back(w);
  return plan;
}

TEST(Faults, EmptyPlanIsInert) {
  // The injector always sits between Mailer and network; with the default
  // (empty) plan it must never count, draw, or hold anything. The byte-
  // identity of the goldens themselves is pinned by test_determinism,
  // which runs this same pipeline.
  Experiment ex(fault_fixture());
  ex.run();
  const auto& stats = ex.fault_stats();
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.duplicated, 0u);
  EXPECT_EQ(stats.delayed, 0u);
  EXPECT_EQ(stats.reordered, 0u);
}

TEST(Faults, PlanValidationRejectsBadValues) {
  auto cfg = fault_fixture();
  cfg.faults.loss_good = 1.5;
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);

  cfg = fault_fixture();
  cfg.faults.delay_spike_min = milliseconds(50);
  cfg.faults.delay_spike_max = milliseconds(10);
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);

  cfg = fault_fixture();
  faults::PartitionWindow w;
  w.modulus = 4;
  w.remainder = 4;
  cfg.faults.partitions.push_back(w);
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
}

TEST(Faults, IdenticalPlanIsThreadCountInvariant) {
  // The same FaultPlan must produce bit-identical digests at --threads
  // 1/2/8: per-sender rng streams are derived from (seed, sender), never
  // from scheduling. This case (threads=8) also runs under TSan in CI.
  std::vector<RunSpec> specs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    auto cfg = fault_fixture();
    cfg.faults = everything_plan();
    specs.emplace_back(std::move(cfg), derive_task_seed(0xFA17ULL, i));
  }
  ParallelRunner serial(1);
  const auto reference = serial.run_digests(specs);

  RunDigest total;
  for (const auto& d : reference) total.accumulate(d);
  EXPECT_GT(total.faults_dropped, 0u);
  EXPECT_GT(total.faults_duplicated, 0u);
  EXPECT_GT(total.faults_delayed, 0u);

  for (const unsigned threads : {2u, 8u}) {
    ParallelRunner runner(threads);
    const auto digests = runner.run_digests(specs);
    ASSERT_EQ(digests.size(), reference.size());
    for (std::size_t i = 0; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i] == reference[i], true)
          << "digest " << i << " diverged at " << threads << " threads";
    }
  }
}

TEST(Faults, ResetReplaysTheIdenticalFaultStream) {
  auto cfg = fault_fixture();
  cfg.faults = everything_plan();
  Experiment ex(cfg);
  ex.run();
  const auto first = RunDigest::of(ex);
  EXPECT_GT(first.faults_dropped, 0u);

  ex.reset();
  ex.run();
  const auto replay = RunDigest::of(ex);
  EXPECT_TRUE(first == replay);

  Experiment fresh(cfg);
  fresh.run();
  EXPECT_TRUE(RunDigest::of(fresh) == first);
}

TEST(Faults, PartitionWindowDropsOnlyWhileActive) {
  auto cfg = fault_fixture();
  faults::PartitionWindow w;
  w.start = seconds(2.0);
  w.end = seconds(4.0);
  w.modulus = 5;
  w.remainder = 1;
  cfg.faults.partitions.push_back(w);
  Experiment ex(cfg);

  // Stop 1 us short of the window opening: a send scheduled exactly at the
  // boundary must not count toward the "before" reading.
  ex.run_until(kSimEpoch + seconds(2.0) - microseconds(1));
  EXPECT_EQ(ex.fault_stats().dropped_partition, 0u);

  ex.run_until(kSimEpoch + seconds(4.0));
  const auto during = ex.fault_stats().dropped_partition;
  EXPECT_GT(during, 0u);

  // Healed: the window closed, so the count freezes while traffic keeps
  // flowing (the partition machinery is rng-free time/id arithmetic).
  const auto delivered_at_heal = ex.network_stats().datagrams_delivered;
  ex.run();
  EXPECT_EQ(ex.fault_stats().dropped_partition, during);
  EXPECT_GT(ex.network_stats().datagrams_delivered, delivered_at_heal);
}

TEST(Faults, AsymmetricPartitionDropsOneDirectionOnly) {
  // drop_island_to_main only: the island can hear but not speak. Pinned at
  // the injector seam (rng-free id/time arithmetic) over the real wire
  // transport: main->island passes, island->main drops.
  sim::Simulator sim;
  net::UdpTransport udp;
  std::size_t at_main = 0;
  std::size_t at_island = 0;
  ASSERT_TRUE(udp.add_endpoint(NodeId{0},
                               [&](NodeId, gossip::Message) { ++at_main; }));
  ASSERT_TRUE(udp.add_endpoint(NodeId{1},
                               [&](NodeId, gossip::Message) { ++at_island; }));
  faults::FaultInjector injector(udp, sim, /*seed=*/1);
  faults::FaultPlan plan;
  faults::PartitionWindow w;
  w.start = Duration::zero();
  w.end = seconds(1.0);
  w.modulus = 2;
  w.remainder = 1;  // island = odd ids
  w.drop_main_to_island = false;
  plan.partitions.push_back(w);
  injector.set_plan(plan);

  const gossip::Message msg{gossip::AuditRequestMsg{1}};
  injector.send(NodeId{0}, NodeId{1}, sim::Channel::kDatagram,
                gossip::wire_size(msg), msg);
  injector.send(NodeId{1}, NodeId{0}, sim::Channel::kDatagram,
                gossip::wire_size(msg), msg);
  std::size_t delivered = 0;
  for (int i = 0; i < 50 && delivered < 1; ++i) delivered += udp.poll_wait(milliseconds(20));
  EXPECT_EQ(at_island, 1u);
  EXPECT_EQ(at_main, 0u);
  EXPECT_EQ(injector.stats().dropped_partition, 1u);
}

TEST(Faults, TimelineSwapsThePlanMidRun) {
  // kSetFaults: faults start at 3 s and heal at 6 s via the timeline, so
  // the drop counter only moves inside that window.
  auto cfg = fault_fixture();
  faults::FaultPlan lossy;
  lossy.loss_good = 0.3;
  cfg.timeline.set_faults_at(seconds(3.0), lossy);
  cfg.timeline.set_faults_at(seconds(6.0), faults::FaultPlan{});
  Experiment ex(cfg);

  ex.run_until(kSimEpoch + seconds(3.0) - microseconds(1));
  EXPECT_EQ(ex.fault_stats().dropped(), 0u);
  ex.run_until(kSimEpoch + seconds(6.0) + milliseconds(1));
  const auto during = ex.fault_stats().dropped();
  EXPECT_GT(during, 0u);
  ex.run();
  EXPECT_EQ(ex.fault_stats().dropped(), during);
}

TEST(Faults, InjectorDuplicatesOverTheUdpTransport) {
  // The same injector class wraps the real wire transport inside each
  // lifting_node daemon; a duplicate is a second identical frame on the
  // socket, and both copies are recorded by the wire accounting.
  sim::Simulator sim;
  net::UdpTransport udp;
  std::size_t received = 0;
  ASSERT_TRUE(udp.add_endpoint(NodeId{0}, nullptr));
  ASSERT_TRUE(udp.add_endpoint(NodeId{1},
                               [&](NodeId, gossip::Message) { ++received; }));
  faults::FaultInjector injector(udp, sim, /*seed=*/7);
  faults::FaultPlan plan;
  plan.duplicate_probability = 1.0;
  injector.set_plan(plan);

  const gossip::Message msg{gossip::BlameMsg{NodeId{3}, 1.0,
                                             gossip::BlameReason::kTestimony}};
  injector.send(NodeId{0}, NodeId{1}, sim::Channel::kDatagram,
                gossip::wire_size(msg), msg);
  std::size_t delivered = 0;
  for (int i = 0; i < 50 && delivered < 2; ++i) delivered += udp.poll_wait(milliseconds(20));
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(received, 2u);
  EXPECT_EQ(injector.stats().duplicated, 1u);
  EXPECT_EQ(udp.wire_stats()[msg.index()].count, 2u);
}

TEST(Faults, SendManyUnderAPlanMatchesALoopOfSends) {
  // Under a non-empty plan the fan-out is applied per destination, in
  // list order, so every per-sender draw — and therefore every drop,
  // duplicate, hold and trace record — equals a loop of send().
  faults::FaultPlan plan;
  plan.p_good_to_bad = 0.05;
  plan.p_bad_to_good = 0.3;
  plan.loss_good = 0.02;
  plan.loss_bad = 0.6;
  plan.duplicate_probability = 0.1;
  plan.reorder_probability = 0.1;
  plan.reorder_delay = milliseconds(30);
  plan.delay_spike_probability = 0.05;
  plan.delay_spike_min = milliseconds(10);
  plan.delay_spike_max = milliseconds(90);
  faults::PartitionWindow w;
  w.start = Duration::zero();
  w.end = seconds(2.0);
  w.modulus = 3;
  w.remainder = 2;  // island: ids 2, 5, 8
  plan.partitions.push_back(w);

  struct Arrival {
    std::int64_t at_us;
    std::uint32_t to;
    std::uint64_t tag;
    bool operator==(const Arrival&) const = default;
  };
  struct Rig {
    explicit Rig(const faults::FaultPlan& plan) {
      for (std::uint32_t i = 0; i < 10; ++i) {
        net.add_node(NodeId{i}, sim::LinkProfile{},
                     [this](const sim::Delivery<gossip::Message>& d) {
                       const auto& b = std::get<gossip::BlameMsg>(d.payload);
                       arrivals.push_back(
                           {sim.now().time_since_epoch().count(),
                            d.to.value(),
                            static_cast<std::uint64_t>(b.value)});
                     });
      }
      injector.set_plan(plan);
      injector.set_trace(&trace);
    }
    sim::Simulator sim;
    sim::Network<gossip::Message> net{sim, Pcg32{21}};
    net::SimTransport transport{net};
    faults::FaultInjector injector{transport, sim, /*seed=*/33};
    obs::Recorder trace{sim, 1 << 14};
    std::vector<Arrival> arrivals;
  };
  Rig fanned(plan);
  Rig looped(plan);
  std::vector<NodeId> to;
  for (std::uint32_t i = 1; i < 10; ++i) to.push_back(NodeId{i});
  for (int round = 0; round < 300; ++round) {
    const gossip::Message msg{gossip::BlameMsg{
        NodeId{3}, static_cast<double>(round), gossip::BlameReason::kTestimony}};
    const auto bytes = gossip::wire_size(msg);
    fanned.injector.send_many(NodeId{0}, to, sim::Channel::kDatagram, bytes,
                              msg);
    for (const NodeId dst : to) {
      looped.injector.send(NodeId{0}, dst, sim::Channel::kDatagram, bytes,
                           msg);
    }
    fanned.sim.run_until(fanned.sim.now() + milliseconds(10));
    looped.sim.run_until(looped.sim.now() + milliseconds(10));
  }
  fanned.sim.run();
  looped.sim.run();

  const auto& a = fanned.injector.stats();
  const auto& b = looped.injector.stats();
  EXPECT_EQ(a.dropped_burst, b.dropped_burst);
  EXPECT_EQ(a.dropped_partition, b.dropped_partition);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_GT(a.dropped_burst, 0u);
  EXPECT_GT(a.dropped_partition, 0u);
  EXPECT_GT(a.duplicated, 0u);
  EXPECT_GT(a.reordered, 0u);
  EXPECT_EQ(fanned.arrivals, looped.arrivals);

  const auto& ra = fanned.trace.ring();
  const auto& rb = looped.trace.ring();
  ASSERT_EQ(ra.total_recorded(), rb.total_recorded());
  ASSERT_EQ(ra.dropped(), 0u);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(std::memcmp(&ra[i], &rb[i], sizeof(obs::TraceRecord)), 0)
        << "trace record " << i;
  }
  EXPECT_EQ(fanned.net.in_flight(), 0u);
}

TEST(Faults, DuplicateDeliveryDoesNotDoubleCountBlameOrScores) {
  // The idempotence audit: duplicate EVERY datagram and arm the dedup
  // machinery (windowed blame dedup; propose/request/testimony/ballot
  // dedup is always on); the manager ledger and the final scores must
  // equal the no-dup run — every receive path is dup-safe, not merely
  // dup-tolerant. The wire itself is made side-effect-free first: under
  // loss a duplicate legitimately acts as redundancy (one copy survives),
  // with jitter the extra datagram draws its own latency, and at finite
  // uplink capacity it occupies real serialization time that delays later
  // traffic past verification deadlines. All three are faithful physics,
  // not double-counting — what this test pins is that the protocol state
  // machines absorb exact duplicates.
  auto base = fault_fixture();
  base.link.loss = 0.0;
  base.link.latency_jitter = Duration::zero();
  base.link.upload_capacity_bps = 1e12;  // tx time rounds to 0 us
  base.lifting.blame_dedup_window = seconds(1.0);
  Experiment clean(base);
  clean.run();
  const auto clean_scores = clean.snapshot_scores();
  const auto clean_emissions = clean.ledger().emissions();

  auto dup = base;
  dup.faults.duplicate_probability = 1.0;
  Experiment doubled(dup);
  doubled.run();
  EXPECT_GT(doubled.fault_stats().duplicated, 0u);
  const auto dup_scores = doubled.snapshot_scores();

  for (int r = 0; r < 6; ++r) {
    double c = 0.0;
    double d = 0.0;
    for (std::uint32_t i = 0; i < base.nodes; ++i) {
      c += clean.ledger().total(NodeId{i}, static_cast<gossip::BlameReason>(r));
      d += doubled.ledger().total(NodeId{i},
                                  static_cast<gossip::BlameReason>(r));
    }
    EXPECT_DOUBLE_EQ(d, c) << "reason " << r;
  }
  EXPECT_EQ(doubled.ledger().emissions(), clean_emissions);
  ASSERT_EQ(dup_scores.honest.size(), clean_scores.honest.size());
  for (std::size_t i = 0; i < clean_scores.honest.size(); ++i) {
    EXPECT_DOUBLE_EQ(dup_scores.honest[i], clean_scores.honest[i]);
  }
  ASSERT_EQ(dup_scores.freeriders.size(), clean_scores.freeriders.size());
  for (std::size_t i = 0; i < clean_scores.freeriders.size(); ++i) {
    EXPECT_DOUBLE_EQ(dup_scores.freeriders[i], clean_scores.freeriders[i]);
  }
}

ScenarioConfig reliable_audit_fixture() {
  auto cfg = fault_fixture();
  cfg.lifting.audit_channel = LiftingParams::AuditChannel::kReliableUdp;
  cfg.lifting.audit_probability = 0.3;
  cfg.lifting.audit_warmup_periods = 4;
  return cfg;
}

TEST(Faults, ReliableAuditChannelRetriesUnderLoss) {
  auto cfg = reliable_audit_fixture();
  cfg.faults.loss_good = 0.4;
  Experiment ex(cfg);
  ex.run();
  const auto totals = ex.audit_channel_totals();
  EXPECT_GT(totals.sends, 0u);
  EXPECT_GT(totals.retries, 0u);
  EXPECT_GT(totals.acks_received, 0u);
}

TEST(Faults, ReliableAuditChannelGivesUpWhenTheBudgetRunsOut) {
  // A permanent full partition around a quarter of the population: audits
  // crossing the boundary can never be acked, so the bounded retry budget
  // must expire into give_ups rather than retrying forever.
  auto cfg = reliable_audit_fixture();
  cfg.lifting.audit_max_retries = 2;
  faults::PartitionWindow w;
  w.start = Duration::zero();
  w.end = cfg.duration;
  w.modulus = 4;
  w.remainder = 1;
  cfg.faults.partitions.push_back(w);
  Experiment ex(cfg);
  ex.run();
  const auto totals = ex.audit_channel_totals();
  EXPECT_GT(totals.sends, 0u);
  EXPECT_GT(totals.give_ups, 0u);
}

TEST(Faults, ReliableAuditChannelIsInertByDefaultAndDeterministic) {
  // Reliable mode with no faults: every audit acked on first transmission,
  // and the mode itself is deterministic (two runs bit-equal).
  auto cfg = reliable_audit_fixture();
  Experiment a(cfg);
  a.run();
  const auto ta = a.audit_channel_totals();
  EXPECT_GT(ta.sends, 0u);
  EXPECT_EQ(ta.give_ups, 0u);
  Experiment b(cfg);
  b.run();
  EXPECT_TRUE(RunDigest::of(a) == RunDigest::of(b));
}

TEST(Faults, DatagramWireSizeMatchesTheCodecExactly) {
  // datagram_wire_size prices a message as IP/UDP headers + the loopback
  // frame's codec bytes (+ the zero-filled serve payload). Pinning it to
  // the actual encoder is what makes the reliable-audit wire-vs-model
  // delta exactly +6 B/msg (the frame header) for every kind.
  gossip::AuditHistoryMsg hist;
  hist.audit_id = 5;
  hist.proposals.push_back(
      {3, {NodeId{1}, NodeId{2}}, {ChunkId{10}, ChunkId{11}}});
  const std::vector<gossip::Message> corpus = {
      gossip::Message{gossip::ProposeMsg{1, {ChunkId{5}, ChunkId{6}}}},
      gossip::Message{gossip::ServeMsg{1, ChunkId{5}, 1024, NodeId{3}}},
      gossip::Message{gossip::AuditRequestMsg{9}},
      gossip::Message{hist},
      gossip::Message{gossip::HistoryPollMsg{9, NodeId{7}, hist.proposals}},
      gossip::Message{
          gossip::HistoryPollRespMsg{9, NodeId{7}, 3, 1, {NodeId{1}}}},
      gossip::Message{gossip::AuditAckMsg{13, 9, NodeId{7}}},
  };
  constexpr std::size_t kIpUdp = 28;
  for (const auto& msg : corpus) {
    const std::size_t payload =
        std::holds_alternative<gossip::ServeMsg>(msg)
            ? std::get<gossip::ServeMsg>(msg).payload_bytes
            : 0;
    EXPECT_EQ(gossip::datagram_wire_size(msg),
              kIpUdp + net::encode(msg).size() + payload)
        << "kind " << gossip::message_kind(msg);
  }
}

TEST(Faults, AuditAckCodecRoundTrip) {
  const gossip::AuditAckMsg ack{14, 123456, NodeId{77}};
  const auto decoded = net::decode(net::encode(gossip::Message{ack}));
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<gossip::AuditAckMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->acked_kind, ack.acked_kind);
  EXPECT_EQ(out->audit_id, ack.audit_id);
  EXPECT_EQ(out->subject, ack.subject);
}

TEST(Faults, WireScenarioRoundTripsFaultPlanAndAuditChannel) {
  auto cfg = ScenarioConfig::small(16);
  cfg.lifting.audit_channel = LiftingParams::AuditChannel::kReliableUdp;
  cfg.lifting.audit_max_retries = 7;
  cfg.lifting.audit_retry_base = milliseconds(125);
  cfg.lifting.audit_retry_jitter = 0.25;
  cfg.lifting.audit_dedup_cap = 64;
  cfg.lifting.blame_dedup_window = milliseconds(750);
  cfg.faults = everything_plan();
  faults::PartitionWindow second;
  second.start = seconds(7.0);
  second.end = seconds(8.0);
  second.modulus = 3;
  second.remainder = 0;
  second.drop_island_to_main = false;
  cfg.faults.partitions.push_back(second);

  std::string error;
  const auto decoded = decode_wire_scenario(encode_wire_scenario(cfg), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->lifting.audit_channel,
            LiftingParams::AuditChannel::kReliableUdp);
  EXPECT_EQ(decoded->lifting.audit_max_retries, 7u);
  EXPECT_EQ(decoded->lifting.audit_retry_base, milliseconds(125));
  EXPECT_DOUBLE_EQ(decoded->lifting.audit_retry_jitter, 0.25);
  EXPECT_EQ(decoded->lifting.audit_dedup_cap, 64u);
  EXPECT_EQ(decoded->lifting.blame_dedup_window, milliseconds(750));
  EXPECT_DOUBLE_EQ(decoded->faults.p_good_to_bad, 0.02);
  EXPECT_DOUBLE_EQ(decoded->faults.loss_bad, 0.6);
  EXPECT_EQ(decoded->faults.delay_spike_min, milliseconds(20));
  EXPECT_EQ(decoded->faults.reorder_delay, milliseconds(40));
  ASSERT_EQ(decoded->faults.partitions.size(), 2u);
  EXPECT_EQ(decoded->faults.partitions[0].modulus, 7u);
  EXPECT_EQ(decoded->faults.partitions[0].remainder, 2u);
  EXPECT_EQ(decoded->faults.partitions[1].start, seconds(7.0));
  EXPECT_FALSE(decoded->faults.partitions[1].drop_island_to_main);
  EXPECT_TRUE(decoded->faults.partitions[1].drop_main_to_island);

  // The plan survives wire_supported's gate (faults are deployable; the
  // timeline's kSetFaults is not — it needs the launcher's clock).
  std::string why;
  EXPECT_TRUE(wire_supported(*decoded, &why)) << why;
  cfg.timeline.set_faults_at(seconds(1.0), faults::FaultPlan{});
  EXPECT_FALSE(wire_supported(cfg, &why));
}

TEST(Faults, CarriedManagerStoreConservesBlameAcrossABounce) {
  // ROADMAP carry-over: with manager_handoff OFF, a departing manager's
  // rows vanish with it — unless carried_manager_store moves them into the
  // rejoining incarnation. The rows move exactly once and keep the OLD
  // store's genesis, so the carried blame is judged against the periods it
  // actually accrued over (no score cliff for the managed targets).
  LiftingParams params;
  ManagerStore old_store(params, kSimEpoch);
  old_store.apply_blame(NodeId{5}, 2.0, gossip::BlameReason::kTestimony);

  ManagerStore fresh(params, kSimEpoch + seconds(10.0));
  EXPECT_EQ(old_store.carry_into(fresh), 1u);
  EXPECT_DOUBLE_EQ(fresh.raw_blame_total(NodeId{5}), 2.0);
  EXPECT_DOUBLE_EQ(old_store.raw_blame_total(NodeId{5}), 0.0);
  EXPECT_EQ(old_store.carry_into(fresh), 0u);  // a row carries at most once

  // Same blame applied natively to the fresh store (genesis = the rejoin
  // instant) divides by half the periods, so it reads strictly lower.
  fresh.apply_blame(NodeId{6}, 2.0, gossip::BlameReason::kTestimony);
  const auto now = kSimEpoch + seconds(20.0);
  EXPECT_GT(fresh.normalized_score(NodeId{5}, now),
            fresh.normalized_score(NodeId{6}, now));
}

TEST(Faults, CarriedManagerStoreRunsTheFrontierScenario) {
  // The bench's off+carried arm end to end: handoff off, churn with
  // rejoiners, carry enabled — must complete with rejoins actually
  // exercising the carry path (bench_adversary_frontier asserts the
  // behavioral effect on the whitewash edge).
  auto cfg = adversary_frontier_config(/*handoff_on=*/false, 0xCA22ULL);
  cfg.carried_manager_store = true;
  Experiment ex(cfg);
  ex.run();
  EXPECT_GT(ex.rejoins().size(), 0u);
}

}  // namespace
}  // namespace lifting::runtime
