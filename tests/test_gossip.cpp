#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "gossip/engine.hpp"
#include "gossip/mailer.hpp"
#include "gossip/message.hpp"
#include "gossip/playback.hpp"
#include "gossip/stream_source.hpp"
#include "membership/directory.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace lifting::gossip {
namespace {

/// Minimal multi-node gossip fixture with a perfect network.
class GossipFixture {
 public:
  explicit GossipFixture(std::uint32_t n, GossipParams params = {},
                         sim::LinkProfile profile = perfect_link())
      : directory_(n), network_(sim_, Pcg32{900}), mailer_(network_, nullptr) {
    params.emit_acks = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId id{i};
      engines_.push_back(std::make_unique<Engine>(
          sim_, mailer_, directory_, id, params,
          BehaviorSpec::honest(), derive_rng(77, i), nullptr));
      network_.add_node(id, profile,
                        [this, i](sim::Delivery<Message> d) {
                          engines_[i]->handle(d.from, d.payload);
                        });
    }
  }

  [[nodiscard]] static sim::LinkProfile perfect_link() {
    sim::LinkProfile p;
    p.loss = 0.0;
    p.latency_base = milliseconds(5);
    p.latency_jitter = milliseconds(2);
    p.upload_capacity_bps = 1e9;
    return p;
  }

  void start_all() {
    Pcg32 rng{31};
    for (auto& e : engines_) {
      e->start(Duration{static_cast<Duration::rep>(rng.uniform() * 5e5)});
    }
  }

  sim::Simulator sim_;
  membership::Directory directory_;
  sim::Network<Message> network_;
  Mailer mailer_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

TEST(WireSize, GrowsWithContent) {
  const ProposeMsg small{1, {ChunkId{1}}};
  const ProposeMsg big{1, {ChunkId{1}, ChunkId{2}, ChunkId{3}}};
  EXPECT_LT(wire_size(Message{small}), wire_size(Message{big}));
  EXPECT_EQ(wire_size(Message{big}) - wire_size(Message{small}), 16u);
}

TEST(WireSize, ServeCarriesPayload) {
  ServeMsg serve{1, ChunkId{9}, 8425, NodeId{0}};
  EXPECT_GT(wire_size(Message{serve}), 8425u);
}

TEST(WireSize, KindNames) {
  EXPECT_STREQ(message_kind(Message{ProposeMsg{}}), "propose");
  EXPECT_STREQ(message_kind(Message{BlameMsg{}}), "blame");
  EXPECT_STREQ(message_kind(Message{AuditHistoryMsg{}}), "audit_history");
}

TEST(Engine, DisseminatesToAllNodesWithoutLoss) {
  GossipFixture fx(40);
  fx.start_all();
  StreamSource::Params sp;
  sp.bitrate_bps = 100'000;
  sp.chunk_payload_bytes = 2'500;  // 5 chunks/s
  sp.duration = seconds(5.0);
  StreamSource source(fx.sim_, *fx.engines_[0], sp);
  source.start();
  fx.sim_.run_until(kSimEpoch + seconds(10.0));

  ASSERT_GT(source.emitted().size(), 20u);
  // Infect-and-die dissemination is probabilistic even without loss: the
  // epidemic dies once every holder has proposed. With f = 7 the expected
  // coverage is ~99.9% per chunk (1 - e^{-f·s} fixpoint); require that and
  // a hard per-chunk floor.
  std::size_t pairs = 0;
  std::size_t covered = 0;
  for (const auto& chunk : source.emitted()) {
    std::size_t holders = 0;
    for (const auto& e : fx.engines_) {
      if (e->has_chunk(chunk.id)) ++holders;
    }
    pairs += fx.engines_.size();
    covered += holders;
    EXPECT_GE(holders, fx.engines_.size() * 95 / 100)
        << "chunk " << chunk.id.value();
  }
  EXPECT_GT(static_cast<double>(covered) / static_cast<double>(pairs), 0.995);
}

TEST(Engine, DeliveryLagIsLogarithmicInPopulation) {
  GossipFixture fx(50);
  fx.start_all();
  StreamSource::Params sp;
  sp.duration = seconds(4.0);
  sp.bitrate_bps = 160'000;
  sp.chunk_payload_bytes = 4'000;
  StreamSource source(fx.sim_, *fx.engines_[0], sp);
  source.start();
  fx.sim_.run_until(kSimEpoch + seconds(10.0));
  // With f = 7 and Tg = 500 ms, full coverage takes ~log_f(50) ≈ 2-3
  // periods; mean lag should be low single-digit seconds.
  double worst = 0.0;
  for (const auto& e : fx.engines_) {
    worst = std::max(
        worst, mean_delivery_lag(source.emitted(), e->delivery_times()));
  }
  EXPECT_LT(worst, 4.0);
  EXPECT_GT(worst, 0.1);
}

TEST(Engine, InfectAndDieNeverReproposesAChunk) {
  // Observer recording every proposal; chunks must appear in at most one
  // propose phase per node (§3: infect-and-die).
  class Recorder final : public EngineObserver {
   public:
    void on_propose_received(NodeId, PeriodIndex, const ChunkIdList&) override {}
    void on_request_sent(NodeId, PeriodIndex, const ChunkIdList&) override {}
    void on_serve_received(NodeId, NodeId, PeriodIndex, ChunkId) override {}
    void on_chunks_served(NodeId, PeriodIndex, const ChunkIdList&) override {}
    void on_ack_received(NodeId, const AckMsg&) override {}
    void on_proposal_sent(PeriodIndex period,
                          const std::vector<NodeId>&,
                          const std::vector<NodeId>&,
                          const ChunkIdList& chunks) override {
      for (const auto c : chunks) {
        proposed_in[c].push_back(period);
      }
    }
    std::map<ChunkId, std::vector<PeriodIndex>> proposed_in;
  };

  sim::Simulator sim;
  membership::Directory dir(10);
  sim::Network<Message> net(sim, Pcg32{901});
  Mailer mailer(net, nullptr);
  Recorder recorder;
  GossipParams params;
  params.emit_acks = false;
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<Recorder> recorders(10);
  for (std::uint32_t i = 0; i < 10; ++i) {
    engines.push_back(std::make_unique<Engine>(
        sim, mailer, dir, NodeId{i}, params, BehaviorSpec::honest(),
        derive_rng(5, i), &recorders[i]));
    net.add_node(NodeId{i}, GossipFixture::perfect_link(),
                 [&engines, i](sim::Delivery<Message> d) {
                   engines[i]->handle(d.from, d.payload);
                 });
  }
  for (auto& e : engines) e->start(milliseconds(10));
  StreamSource::Params sp;
  sp.duration = seconds(3.0);
  StreamSource source(sim, *engines[0], sp);
  source.start();
  sim.run_until(kSimEpoch + seconds(6.0));

  for (const auto& rec : recorders) {
    for (const auto& [chunk, periods] : rec.proposed_in) {
      EXPECT_EQ(periods.size(), 1u)
          << "chunk " << chunk.value() << " proposed in multiple phases";
    }
  }
}

TEST(Engine, ServesOnlyProposedAndRequestedChunks) {
  // A node that requests chunks never proposed to it gets nothing (§3/§4.2).
  sim::Simulator sim;
  membership::Directory dir(2);
  sim::Network<Message> net(sim, Pcg32{902});
  Mailer mailer(net, nullptr);
  GossipParams params;
  params.emit_acks = false;
  Engine server(sim, mailer, dir, NodeId{0}, params, BehaviorSpec::honest(),
                Pcg32{1}, nullptr);
  int served = 0;
  net.add_node(NodeId{0}, GossipFixture::perfect_link(),
               [&](sim::Delivery<Message> d) { server.handle(d.from, d.payload); });
  net.add_node(NodeId{1}, GossipFixture::perfect_link(),
               [&](sim::Delivery<Message> d) {
                 if (std::holds_alternative<ServeMsg>(d.payload)) ++served;
               });
  server.inject_chunk(ChunkMeta{ChunkId{1}, 100, sim.now()});
  // Forged request with no matching proposal: must be ignored.
  net.send(NodeId{1}, NodeId{0}, sim::Channel::kDatagram, 50,
           Message{RequestMsg{1, {ChunkId{1}}}});
  sim.run();
  EXPECT_EQ(served, 0);
  EXPECT_EQ(server.stats().invalid_requests, 1u);
}

TEST(Engine, FanoutDecreaseAttackContactsFewerPartners) {
  sim::Simulator sim;
  membership::Directory dir(30);
  sim::Network<Message> net(sim, Pcg32{903});
  Mailer mailer(net, nullptr);
  GossipParams params;
  params.fanout = 8;
  params.emit_acks = false;
  BehaviorSpec cheat;
  cheat.delta_fanout = 0.5;
  int proposals_received = 0;
  Engine cheater(sim, mailer, dir, NodeId{0}, params, cheat, Pcg32{2},
                 nullptr);
  net.add_node(NodeId{0}, GossipFixture::perfect_link(),
               [&](sim::Delivery<Message> d) { cheater.handle(d.from, d.payload); });
  for (std::uint32_t i = 1; i < 30; ++i) {
    net.add_node(NodeId{i}, GossipFixture::perfect_link(),
                 [&](sim::Delivery<Message> d) {
                   if (std::holds_alternative<ProposeMsg>(d.payload)) {
                     ++proposals_received;
                   }
                 });
  }
  cheater.start(milliseconds(1));
  for (int round = 0; round < 40; ++round) {
    cheater.inject_chunk(
        ChunkMeta{ChunkId{static_cast<std::uint32_t>(round)}, 100,
                  sim.now()});
    sim.run_until(sim.now() + params.period);
  }
  // (1-δ1)·f = 4 partners on average instead of 8.
  const double avg = static_cast<double>(proposals_received) / 40.0;
  EXPECT_NEAR(avg, 4.0, 0.8);
}

TEST(Engine, MitmRedirectsAcksAndClaimsCoalitionPartners) {
  // Fig. 8b mechanics: the freerider's serves carry a coalition ack-target,
  // its acks list coalition members, and a coalition member sends the fake
  // confirm trail to the real partners.
  sim::Simulator sim;
  membership::Directory dir(30);
  sim::Network<Message> net(sim, Pcg32{905});
  Mailer mailer(net, nullptr);
  GossipParams params;
  params.fanout = 4;
  BehaviorSpec mitm;
  CollusionSpec collusion;
  for (std::uint32_t i = 20; i < 26; ++i) {
    collusion.coalition.push_back(NodeId{i});
  }
  collusion.mitm = true;
  mitm.collusion = collusion;  // node 20 is in its own coalition

  Engine cheater(sim, mailer, dir, NodeId{20}, params, mitm, Pcg32{6},
                 nullptr);
  std::vector<AckMsg> acks_seen;
  std::vector<std::pair<NodeId, ConfirmReqMsg>> trail;  // (receiver, msg)
  std::vector<ServeMsg> serves_seen;
  net.add_node(NodeId{20}, GossipFixture::perfect_link(),
               [&](sim::Delivery<Message> d) { cheater.handle(d.from, d.payload); });
  for (std::uint32_t i = 0; i < 30; ++i) {
    if (i == 20) continue;
    net.add_node(NodeId{i}, GossipFixture::perfect_link(),
                 [&, i](sim::Delivery<Message> d) {
                   if (const auto* a = std::get_if<AckMsg>(&d.payload)) {
                     acks_seen.push_back(*a);
                   } else if (const auto* c =
                                  std::get_if<ConfirmReqMsg>(&d.payload)) {
                     trail.emplace_back(NodeId{i}, *c);
                   } else if (const auto* s =
                                  std::get_if<ServeMsg>(&d.payload)) {
                     serves_seen.push_back(*s);
                   } else if (std::holds_alternative<ProposeMsg>(d.payload)) {
                     // request everything proposed
                     const auto& p = std::get<ProposeMsg>(d.payload);
                     net.send(NodeId{i}, NodeId{20}, sim::Channel::kDatagram,
                              50, Message{RequestMsg{p.period, p.chunks}});
                   }
                 });
  }
  // The cheater "receives" a chunk from node 1 (a serve) so it owes an ack.
  net.send(NodeId{1}, NodeId{20}, sim::Channel::kDatagram, 1000,
           Message{ServeMsg{1, ChunkId{5}, 100, NodeId{1}}});
  sim.run_until(sim.now() + milliseconds(50));
  cheater.start(milliseconds(1));
  sim.run_until(sim.now() + milliseconds(600));

  // Ack to the server lists only coalition partners.
  ASSERT_FALSE(acks_seen.empty());
  for (const auto& ack : acks_seen) {
    for (const auto partner : ack.partners) {
      EXPECT_TRUE(mitm.collusion->contains(partner));
    }
  }
  // The fake confirm trail about the cheater reached its real partners.
  ASSERT_FALSE(trail.empty());
  for (const auto& [receiver, msg] : trail) {
    EXPECT_EQ(msg.subject, NodeId{20});
  }
  // Serves carry a coalition ack-target, not the cheater itself.
  for (const auto& serve : serves_seen) {
    EXPECT_NE(serve.ack_to, NodeId{20});
    EXPECT_TRUE(mitm.collusion->contains(serve.ack_to));
  }
}

TEST(Engine, PartialProposeDropsServersButAcksClaimTheirChunks) {
  // δ2 = 1: every server's chunks are dropped from the proposal, yet the
  // (lying) acks still claim them — the witnesses are who catch this.
  sim::Simulator sim;
  membership::Directory dir(10);
  sim::Network<Message> net(sim, Pcg32{906});
  Mailer mailer(net, nullptr);
  GossipParams params;
  params.fanout = 3;
  BehaviorSpec cheat;
  cheat.delta_propose = 1.0;
  Engine cheater(sim, mailer, dir, NodeId{0}, params, cheat, Pcg32{8},
                 nullptr);
  std::vector<AckMsg> acks;
  int proposals = 0;
  net.add_node(NodeId{0}, GossipFixture::perfect_link(),
               [&](sim::Delivery<Message> d) { cheater.handle(d.from, d.payload); });
  for (std::uint32_t i = 1; i < 10; ++i) {
    net.add_node(NodeId{i}, GossipFixture::perfect_link(),
                 [&](sim::Delivery<Message> d) {
                   if (const auto* a = std::get_if<AckMsg>(&d.payload)) {
                     acks.push_back(*a);
                   } else if (std::holds_alternative<ProposeMsg>(d.payload)) {
                     ++proposals;
                   }
                 });
  }
  net.send(NodeId{3}, NodeId{0}, sim::Channel::kDatagram, 1000,
           Message{ServeMsg{1, ChunkId{7}, 100, NodeId{3}}});
  sim.run_until(sim.now() + milliseconds(50));
  cheater.start(milliseconds(1));
  sim.run_until(sim.now() + milliseconds(600));
  EXPECT_EQ(proposals, 0);  // the only fresh chunk's server was dropped
  ASSERT_EQ(acks.size(), 1u);  // ...but the server still got a lying ack
  EXPECT_EQ(acks[0].chunks, ChunkIdList{ChunkId{7}});
}

TEST(Mailer, AccountsMessagesAndBytesByKind) {
  sim::Simulator sim;
  sim::Network<Message> net(sim, Pcg32{907});
  sim::MetricsRegistry metrics;
  Mailer mailer(net, &metrics);
  sim::LinkProfile link;
  net.add_node(NodeId{0}, link, [](sim::Delivery<Message>) {});
  net.add_node(NodeId{1}, link, [](sim::Delivery<Message>) {});
  const Message propose{ProposeMsg{1, {ChunkId{1}, ChunkId{2}}}};
  mailer.send(NodeId{0}, NodeId{1}, sim::Channel::kDatagram, propose);
  mailer.send(NodeId{0}, NodeId{1}, sim::Channel::kDatagram, propose);
  mailer.send(NodeId{0}, NodeId{1}, sim::Channel::kDatagram,
              Message{BlameMsg{NodeId{5}, 2.0,
                               BlameReason::kDirectVerification}});
  EXPECT_EQ(metrics.value("sent.propose.count"), 2u);
  EXPECT_EQ(metrics.value("sent.propose.bytes"), 2 * wire_size(propose));
  EXPECT_EQ(metrics.value("sent.blame.count"), 1u);
  EXPECT_EQ(metrics.value("sent.serve.count"), 0u);
  EXPECT_TRUE(is_dissemination_kind("propose"));
  EXPECT_FALSE(is_dissemination_kind("blame"));
}

TEST(Mailer, SendManyAccountsAsThatManySingleSends) {
  sim::Simulator sim;
  sim::Network<Message> net(sim, Pcg32{908});
  sim::MetricsRegistry fanned;
  sim::MetricsRegistry single;
  Mailer fan_mailer(net, &fanned);
  Mailer one_mailer(net, &single);
  for (std::uint32_t i = 0; i < 5; ++i) {
    net.add_node(NodeId{i}, sim::LinkProfile{},
                 [](const sim::Delivery<Message>&) {});
  }
  const std::vector<NodeId> to{NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  const Message blame{BlameMsg{NodeId{3}, 1.0, BlameReason::kTestimony}};
  const Message propose{ProposeMsg{2, {ChunkId{1}, ChunkId{2}}}};

  // An empty fan-out registers nothing, so the first kind actually sent
  // keeps its place in the registry order.
  fan_mailer.send_many(NodeId{0}, {}, sim::Channel::kDatagram, propose);
  EXPECT_TRUE(fanned.snapshot().empty());

  fan_mailer.send_many(NodeId{0}, to, sim::Channel::kDatagram, blame);
  fan_mailer.send_many(NodeId{0}, to, sim::Channel::kDatagram, propose);
  for (const Message& m : {blame, propose}) {
    for (const NodeId dst : to) {
      one_mailer.send(NodeId{0}, dst, sim::Channel::kDatagram, m);
    }
  }
  EXPECT_EQ(fanned.snapshot(), single.snapshot());
  EXPECT_EQ(fanned.value("sent.blame.count"), to.size());
  EXPECT_EQ(fanned.value("sent.blame.bytes"), to.size() * wire_size(blame));
  sim.run();
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(Playback, HealthCurveDetectsLaggards) {
  std::vector<ChunkMeta> emitted;
  DeliveryLog fast;
  DeliveryLog slow;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const ChunkMeta c{ChunkId{i}, 100, kSimEpoch + seconds(6.0 + 0.1 * static_cast<double>(i))};
    emitted.push_back(c);
    fast.record(c.id, c.emitted_at + seconds(1.0));
    slow.record(c.id, c.emitted_at + seconds(8.0));
  }
  const TimePoint end = kSimEpoch + seconds(40.0);
  PlaybackConfig cfg;
  cfg.warmup = seconds(5.0);
  const auto curve =
      health_curve(emitted, {&fast, &slow}, end, {2.0, 10.0}, cfg);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].fraction_clear, 0.5);  // only the fast node
  EXPECT_DOUBLE_EQ(curve[1].fraction_clear, 1.0);  // both within 10 s
}

TEST(Playback, MeanLag) {
  std::vector<ChunkMeta> emitted{{ChunkId{0}, 10, kSimEpoch},
                                 {ChunkId{1}, 10, kSimEpoch + seconds(1.0)}};
  DeliveryLog deliveries;
  deliveries.record(ChunkId{0}, kSimEpoch + seconds(2.0));
  deliveries.record(ChunkId{1}, kSimEpoch + seconds(2.0));
  EXPECT_DOUBLE_EQ(mean_delivery_lag(emitted, deliveries), 1.5);
}

TEST(DeliveryLog, CompactBeforeReleasesWholePages) {
  constexpr std::uint32_t kPer = RingLog<TimePoint>::kPerPage;
  DeliveryLog log;
  const auto at = [](std::uint32_t id) {
    return kSimEpoch + milliseconds(10) * id;
  };
  for (std::uint32_t i = 0; i < 10 * kPer; ++i) {
    if (i % 7 != 3) log.record(ChunkId{i}, at(i));  // with gaps
  }
  const std::size_t delivered = log.size();
  const std::size_t idle = detail::PagePool::idle_bytes();
  // A fold line inside page 4: pages 0..3 are released, page 4 stays.
  const std::uint32_t fold = 4 * kPer + kPer / 2;
  log.compact_before(ChunkId{fold});
  EXPECT_EQ(detail::PagePool::idle_bytes(), idle + 4 * kPageBytes);
  EXPECT_EQ(log.window_base(), ChunkId{fold});
  EXPECT_EQ(log.size(), delivered);
  std::size_t folded = 0;
  for (std::uint32_t i = 0; i < 10 * kPer; ++i) {
    const ChunkId id{i};
    ASSERT_EQ(log.contains(id), i % 7 != 3) << i;
    if (i < fold && log.contains(id)) ++folded;
    const TimePoint* t = log.find(id);
    if (i < fold || i % 7 == 3) {
      ASSERT_EQ(t, nullptr) << i;
    } else {
      ASSERT_NE(t, nullptr) << i;
      EXPECT_EQ(*t, at(i));
    }
  }
  std::size_t iterated = 0;
  for (const auto& [id, t] : log) {
    EXPECT_GE(id.value(), fold);
    EXPECT_EQ(t, at(id.value()));
    ++iterated;
  }
  EXPECT_EQ(iterated + folded, delivered);
  // Folding past the retained window empties it; later deliveries land
  // past the new base.
  log.compact_before(ChunkId{12 * kPer});
  EXPECT_EQ(detail::PagePool::idle_bytes(), idle + 10 * kPageBytes);
  log.record(ChunkId{12 * kPer + 3}, at(5));
  ASSERT_NE(log.find(ChunkId{12 * kPer + 3}), nullptr);
  EXPECT_EQ(*log.find(ChunkId{12 * kPer + 3}), at(5));
  EXPECT_EQ(log.find(ChunkId{12 * kPer}), nullptr);
}

TEST(StreamSource, EmitsAtConfiguredRate) {
  sim::Simulator sim;
  membership::Directory dir(2);
  sim::Network<Message> net(sim, Pcg32{904});
  Mailer mailer(net, nullptr);
  GossipParams params;
  params.emit_acks = false;
  Engine engine(sim, mailer, dir, NodeId{0}, params, BehaviorSpec::honest(),
                Pcg32{3}, nullptr);
  net.add_node(NodeId{0}, GossipFixture::perfect_link(),
               [](sim::Delivery<Message>) {});
  net.add_node(NodeId{1}, GossipFixture::perfect_link(),
               [](sim::Delivery<Message>) {});
  StreamSource::Params sp;
  sp.bitrate_bps = 674'000.0;
  sp.chunk_payload_bytes = 8'425;
  sp.duration = seconds(10.0);
  StreamSource source(sim, engine, sp);
  source.start();
  sim.run();
  // 674 kbps / 8425 B = 10 chunks/s for 10 s.
  EXPECT_EQ(source.emitted().size(), 100u);
  EXPECT_EQ(source.chunk_interval(), milliseconds(100));
  for (const auto& c : source.emitted()) {
    EXPECT_TRUE(engine.has_chunk(c.id));
  }
}

}  // namespace
}  // namespace lifting::gossip
