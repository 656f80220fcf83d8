#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../bench/alloc_tally.hpp"
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
      : directory_(n), network_(sim_, Pcg32{900}), mailer_(network_) {
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

/// One engine (node 0) among passive peers. The test drives node 0
/// through Engine::handle and sees what reaches the peers through
/// `on_peer`. Links have no jitter, so messages sent at one instant arrive
/// in send order.
struct SoloEngine {
  explicit SoloEngine(std::uint32_t n, GossipParams params = {})
      : dir(n),
        net(sim, Pcg32{910}),
        mailer(net),
        engine(sim, mailer, dir, NodeId{0}, params, BehaviorSpec::honest(),
               Pcg32{12}, nullptr) {
    sim::LinkProfile link = GossipFixture::perfect_link();
    link.latency_jitter = Duration::zero();
    net.add_node(NodeId{0}, link, [this](const sim::Delivery<Message>& d) {
      engine.handle(d.from, d.payload);
    });
    for (std::uint32_t i = 1; i < n; ++i) {
      net.add_node(NodeId{i}, link, [this](const sim::Delivery<Message>& d) {
        if (on_peer) on_peer(d);
      });
    }
  }

  void serve(NodeId from, ChunkId chunk, NodeId ack_to) {
    engine.handle(from, Message{ServeMsg{1, chunk, 1000, ack_to}});
  }

  sim::Simulator sim;
  membership::Directory dir;
  sim::Network<Message> net;
  Mailer mailer;
  Engine engine;
  std::function<void(const sim::Delivery<Message>&)> on_peer;
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

TEST(KindClass, EveryKindHasExactlyOneClass) {
  const std::map<std::string, KindClass> expected{
      {"propose", KindClass::kDissemination},
      {"request", KindClass::kDissemination},
      {"serve", KindClass::kDissemination},
      {"ack", KindClass::kVerification},
      {"confirm_req", KindClass::kVerification},
      {"confirm_resp", KindClass::kVerification},
      {"blame", KindClass::kVerification},
      {"score_query", KindClass::kVerification},
      {"score_reply", KindClass::kVerification},
      {"expel_request", KindClass::kVerification},
      {"expel_vote", KindClass::kVerification},
      {"expel_commit", KindClass::kVerification},
      {"audit_request", KindClass::kAudit},
      {"audit_history", KindClass::kAudit},
      {"history_poll", KindClass::kAudit},
      {"history_poll_resp", KindClass::kAudit},
      {"audit_ack", KindClass::kAudit},
      {"rps_shuffle", KindClass::kSubstrate}};
  constexpr std::size_t kKinds = std::variant_size_v<Message>;
  ASSERT_EQ(expected.size(), kKinds);
  std::map<KindClass, std::size_t> per_class;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto it = expected.find(message_kind_name(k));
    ASSERT_TRUE(it != expected.end()) << message_kind_name(k);
    EXPECT_EQ(kind_class(k), it->second) << it->first;
    ++per_class[kind_class(k)];
  }
  EXPECT_EQ(per_class[KindClass::kDissemination], 3u);
  EXPECT_EQ(per_class[KindClass::kVerification], 9u);
  EXPECT_EQ(per_class[KindClass::kAudit], 5u);
  EXPECT_EQ(per_class[KindClass::kSubstrate], 1u);
  static_assert(kind_index<ProposeMsg>() == 0);
  static_assert(kind_index<AuditAckMsg>() == kAuditKindFirst + kAuditKindCount);
  static_assert(kind_index<RpsShuffleMsg>() == kKinds - 1);
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
  Mailer mailer(net);
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
  Mailer mailer(net);
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
  Mailer mailer(net);
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
  Mailer mailer(net);
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
  Mailer mailer(net);
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

TEST(Engine, AcksGoOutByTargetWithChunksInReceiveOrder) {
  // Serves from three servers arrive interleaved. The propose phase acks
  // each server once, in ascending server order, listing its chunks in
  // the order they arrived. A source-injected chunk, a chunk whose ack
  // target is the node itself and one whose target the node no longer
  // sees owe no ack.
  GossipParams params;
  params.fanout = 3;
  SoloEngine rig(10, params);
  std::vector<std::pair<NodeId, AckMsg>> acks;
  std::vector<NodeId> partners;
  rig.on_peer = [&](const sim::Delivery<Message>& d) {
    if (const auto* ack = std::get_if<AckMsg>(&d.payload)) {
      acks.emplace_back(d.to, *ack);
    } else if (std::holds_alternative<ProposeMsg>(d.payload)) {
      partners.push_back(d.to);
    }
  };
  rig.dir.leave(NodeId{8});
  const NodeId order[] = {NodeId{7}, NodeId{2}, NodeId{5}, NodeId{2},
                          NodeId{7}, NodeId{5}, NodeId{2}};
  for (std::uint32_t i = 0; i < 7; ++i) {
    rig.serve(order[i], ChunkId{10 + i}, order[i]);
    if (i == 3) {
      rig.engine.inject_chunk(ChunkMeta{ChunkId{20}, 1000, rig.sim.now()});
      rig.serve(NodeId{3}, ChunkId{17}, NodeId{0});  // ack to self
      rig.serve(NodeId{4}, ChunkId{18}, NodeId{8});  // target not seen
    }
  }
  rig.engine.start(milliseconds(1));
  rig.sim.run_until(rig.sim.now() + milliseconds(100));

  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0].first, NodeId{2});
  EXPECT_EQ(acks[0].second.chunks,
            (ChunkIdList{ChunkId{11}, ChunkId{13}, ChunkId{16}}));
  EXPECT_EQ(acks[1].first, NodeId{5});
  EXPECT_EQ(acks[1].second.chunks, (ChunkIdList{ChunkId{12}, ChunkId{15}}));
  EXPECT_EQ(acks[2].first, NodeId{7});
  EXPECT_EQ(acks[2].second.chunks, (ChunkIdList{ChunkId{10}, ChunkId{14}}));
  ASSERT_EQ(partners.size(), 3u);
  for (const auto& [target, ack] : acks) {
    EXPECT_EQ(ack.period, 1u);
    EXPECT_EQ(std::vector<NodeId>(ack.partners.begin(), ack.partners.end()),
              partners);
  }
}

TEST(PendingRequests, HoldOnlyOutstandingRequests) {
  const Duration timeout = milliseconds(500);
  const TimePoint t0 = kSimEpoch + seconds(1.0);
  const ChunkId a{1};
  const ChunkId b{2};
  const ChunkId c{3};
  PendingRequests pending;
  EXPECT_EQ(pending.deadline(a), TimePoint::min());
  pending.add(a, t0 + timeout, t0);
  pending.add(b, t0 + timeout, t0);
  EXPECT_EQ(pending.deadline(a), t0 + timeout);
  EXPECT_EQ(pending.deadline(c), TimePoint::min());

  // A serve clears its entry; the other request stays outstanding.
  pending.clear(a);
  EXPECT_EQ(pending.deadline(a), TimePoint::min());
  EXPECT_EQ(pending.deadline(b), t0 + timeout);
  EXPECT_EQ(pending.size(), 1u);
  pending.clear(a);  // a duplicated serve: nothing left to clear
  EXPECT_EQ(pending.size(), 1u);

  // A re-request after the clear reports its new deadline.
  const TimePoint t1 = t0 + milliseconds(100);
  pending.add(a, t1 + timeout, t1);
  EXPECT_EQ(pending.deadline(a), t1 + timeout);
  EXPECT_EQ(pending.size(), 2u);

  // At b's deadline the next request drops b; a is still outstanding.
  const TimePoint t2 = t0 + timeout;
  pending.add(c, t2 + timeout, t2);
  EXPECT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending.deadline(b), TimePoint::min());
  EXPECT_EQ(pending.deadline(a), t1 + timeout);
  EXPECT_EQ(pending.deadline(c), t2 + timeout);

  // Re-requesting a after it expired replaces its entry.
  const TimePoint t3 = t1 + timeout;
  pending.add(a, t3 + timeout, t3);
  EXPECT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending.deadline(a), t3 + timeout);

  // Three pages of requests expire together: the ring gives back every
  // page but the one holding the new entry.
  constexpr std::uint32_t kThreePages = 3 * kPageBytes / 8;  // 8 B each
  for (std::uint32_t i = 0; i < kThreePages; ++i) {
    pending.add(ChunkId{100 + i}, t3 + timeout, t3);
  }
  EXPECT_GE(pending.pages(), 3u);
  for (std::uint32_t i = 0; i < kThreePages; i += 2) {
    pending.clear(ChunkId{100 + i});  // served out of order
  }
  EXPECT_EQ(pending.deadline(ChunkId{101}), t3 + timeout);
  EXPECT_EQ(pending.deadline(ChunkId{102}), TimePoint::min());
  const TimePoint t4 = t3 + timeout;
  pending.add(b, t4 + timeout, t4);
  EXPECT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.pages(), 1u);
  EXPECT_EQ(pending.deadline(b), t4 + timeout);
}

TEST(Engine, RequestsTimeOutExactlyAndServesClearThem) {
  GossipParams params;
  params.request_timeout = milliseconds(500);
  SoloEngine rig(5, params);
  std::vector<std::pair<NodeId, RequestMsg>> requests;
  rig.on_peer = [&](const sim::Delivery<Message>& d) {
    if (const auto* r = std::get_if<RequestMsg>(&d.payload)) {
      requests.emplace_back(d.to, *r);
    }
  };
  const ChunkId a{1};
  const ChunkId b{2};
  // Proposals are handled at exact instants; their requests reach the
  // peers later, in send order.
  const auto propose = [&](std::uint32_t from, ChunkIdList chunks) {
    rig.engine.handle(NodeId{from}, Message{ProposeMsg{1, std::move(chunks)}});
    return rig.engine.stats().requests_sent;
  };
  const TimePoint t0 = kSimEpoch + seconds(1.0);
  rig.sim.run_until(t0);
  EXPECT_EQ(propose(1, {a, b}), 1u);
  EXPECT_EQ(rig.engine.pending_deadline(a), t0 + params.request_timeout);

  // Still outstanding one tick before the timeout...
  rig.sim.run_until(t0 + params.request_timeout - Duration{1});
  EXPECT_EQ(propose(2, {a}), 1u);
  // ...and requestable from another proposer exactly at it.
  const TimePoint t1 = t0 + params.request_timeout;
  rig.sim.run_until(t1);
  EXPECT_EQ(propose(3, {a}), 2u);
  EXPECT_EQ(rig.engine.pending_deadline(a), t1 + params.request_timeout);
  EXPECT_EQ(rig.engine.pending_deadline(b), TimePoint::min());  // expired

  // The serve clears a's entry.
  rig.serve(NodeId{3}, a, NodeId{3});
  EXPECT_TRUE(rig.engine.has_chunk(a));
  EXPECT_EQ(rig.engine.pending_deadline(a), TimePoint::min());

  // A transport-duplicated serve changes nothing.
  const EngineStats before = rig.engine.stats();
  const std::size_t pages = rig.engine.period_state_pages();
  rig.serve(NodeId{3}, a, NodeId{3});
  EXPECT_EQ(rig.engine.pending_deadline(a), TimePoint::min());
  EXPECT_EQ(rig.engine.stats().chunks_received, before.chunks_received);
  EXPECT_EQ(rig.engine.stats().duplicate_serves,
            before.duplicate_serves + 1);
  EXPECT_EQ(rig.engine.period_state_pages(), pages);
  EXPECT_EQ(propose(4, {a, b}), 3u);  // a is held; only b is requested
  rig.sim.run();
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].first, NodeId{1});
  EXPECT_EQ(requests[0].second.chunks, (ChunkIdList{a, b}));
  EXPECT_EQ(requests[1].first, NodeId{3});
  EXPECT_EQ(requests[1].second.chunks, ChunkIdList{a});
  EXPECT_EQ(requests[2].first, NodeId{4});
  EXPECT_EQ(requests[2].second.chunks, ChunkIdList{b});
}

TEST(Engine, PeriodStateHoldsConstantPagesWithoutAllocating) {
  // Every period four servers serve 32 chunks (one page of fresh
  // entries; each server's ack carries 8 ids, inline), a peer offers 32
  // chunks the engine requests (pending entries all expiring at the next
  // offer), and each partner requests the whole
  // 32-id proposal (spilled lists). After a warm-up, the per-period
  // tables hold a constant page count and a period makes no allocator
  // call: pages and spilled lists cycle through the block pool, ack rows
  // reuse their thread's buffer. The warm-up is 10 periods, not one: the
  // sent-proposal window grows for its first 5, and
  // the network's recycled delivery slots, which keep a stale payload's
  // spill block until they are reused, settle by the 9th.
  GossipParams params;
  params.fanout = 4;
  SoloEngine rig(12, params);
  rig.on_peer = [&](const sim::Delivery<Message>& d) {
    if (const auto* p = std::get_if<ProposeMsg>(&d.payload)) {
      rig.net.send(d.to, NodeId{0}, sim::Channel::kDatagram, 100,
                   Message{RequestMsg{p->period, p->chunks}});
    }
  };
  constexpr std::uint32_t kPerPeriod = 32;
  constexpr int kWarmup = 10;
  constexpr int kPeriods = kWarmup + 20;
  rig.engine.reserve_stream_chunks(kPerPeriod * kPeriods);
  rig.engine.start(milliseconds(1));
  std::vector<std::size_t> held;
  held.reserve(kPeriods);
  bench::AllocSnapshot start;
  for (int p = 0; p < kPeriods; ++p) {
    if (p == kWarmup) start = bench::AllocSnapshot::now();
    const auto first = static_cast<std::uint32_t>(p) * kPerPeriod;
    rig.sim.run_until(kSimEpoch + milliseconds(101) + params.period * p);
    rig.engine.compact_delivery_log(ChunkId{first});
    for (std::uint32_t i = 0; i < kPerPeriod; ++i) {
      const NodeId server{1 + i % 4};
      rig.serve(server, ChunkId{first + i}, server);
    }
    ChunkIdList offered;
    for (std::uint32_t i = 0; i < kPerPeriod; ++i) {
      offered.push_back(ChunkId{100'000 + first + i});
    }
    rig.engine.handle(NodeId{9}, Message{ProposeMsg{1, std::move(offered)}});
    if (p >= kWarmup) held.push_back(rig.engine.period_state_pages());
  }
  const auto cost = bench::AllocSnapshot::now().delta_since(start);
  EXPECT_EQ(cost.calls, 0u);
  ASSERT_EQ(held.size(), 20u);
  EXPECT_EQ(held, std::vector<std::size_t>(20, held.front()));
  // fresh (1) + pending (1) + a 5-entry window at 4 per page (2).
  EXPECT_EQ(held.front(), 4u);
  EXPECT_GE(rig.engine.stats().proposals_sent, 25u);
  EXPECT_EQ(rig.engine.stats().chunks_served,
            rig.engine.stats().proposals_sent * params.fanout * kPerPeriod);
}

TEST(Network, SpilledProposalSharesOneSlotAcrossAFanOut) {
  // A planetlab-sized proposal (28 ids) spills past ChunkIdList's inline
  // capacity. A fan-out stores it once: every destination reads the same
  // spilled buffer, and the last delivery frees the slot.
  sim::Simulator sim;
  sim::Network<Message> net(sim, Pcg32{911});
  std::vector<const ChunkId*> seen;
  ProposeMsg propose{3, {}};
  for (std::uint32_t i = 0; i < 28; ++i) {
    propose.chunks.push_back(ChunkId{1000 + 2 * i});
  }
  ASSERT_GT(propose.chunks.size(), ChunkIdList{}.capacity());
  for (std::uint32_t i = 0; i < 8; ++i) {
    net.add_node(NodeId{i}, GossipFixture::perfect_link(),
                 [&](const sim::Delivery<Message>& d) {
                   const auto& got = std::get<ProposeMsg>(d.payload);
                   EXPECT_EQ(got.chunks, propose.chunks);
                   seen.push_back(got.chunks.data());
                 });
  }
  const std::vector<NodeId> to{NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4},
                               NodeId{5}, NodeId{6}, NodeId{7}};
  net.send_many(NodeId{0}, to, sim::Channel::kDatagram, 200,
                Message{propose});
  EXPECT_EQ(net.in_flight(), 1u);
  sim.run();
  ASSERT_EQ(seen.size(), to.size());
  EXPECT_EQ(seen, std::vector<const ChunkId*>(to.size(), seen.front()));
  EXPECT_NE(seen.front(), propose.chunks.data());  // the slot's own copy
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(Mailer, AccountsMessagesAndBytesByKind) {
  sim::Simulator sim;
  sim::Network<Message> net(sim, Pcg32{907});
  Mailer mailer(net);
  sim::LinkProfile link;
  net.add_node(NodeId{0}, link, [](sim::Delivery<Message>) {});
  net.add_node(NodeId{1}, link, [](sim::Delivery<Message>) {});
  const Message propose{ProposeMsg{1, {ChunkId{1}, ChunkId{2}}}};
  mailer.send(NodeId{0}, NodeId{1}, sim::Channel::kDatagram, propose);
  mailer.send(NodeId{0}, NodeId{1}, sim::Channel::kDatagram, propose);
  mailer.send(NodeId{0}, NodeId{1}, sim::Channel::kDatagram,
              Message{BlameMsg{NodeId{5}, 2.0,
                               BlameReason::kDirectVerification}});
  const auto& sent = mailer.sent();
  EXPECT_EQ(sent[kind_index<ProposeMsg>()].count, 2u);
  EXPECT_EQ(sent[kind_index<ProposeMsg>()].bytes, 2 * wire_size(propose));
  EXPECT_EQ(sent[kind_index<BlameMsg>()].count, 1u);
  EXPECT_EQ(sent[kind_index<ServeMsg>()].count, 0u);

  mailer.clear_sent();
  for (const auto& kind : mailer.sent()) {
    EXPECT_EQ(kind.count, 0u);
    EXPECT_EQ(kind.bytes, 0u);
  }
}

TEST(Mailer, SendManyAccountsAsThatManySingleSends) {
  sim::Simulator sim;
  sim::Network<Message> net(sim, Pcg32{908});
  Mailer fan_mailer(net);
  Mailer one_mailer(net);
  for (std::uint32_t i = 0; i < 5; ++i) {
    net.add_node(NodeId{i}, sim::LinkProfile{},
                 [](const sim::Delivery<Message>&) {});
  }
  const std::vector<NodeId> to{NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  const Message blame{BlameMsg{NodeId{3}, 1.0, BlameReason::kTestimony}};
  const Message propose{ProposeMsg{2, {ChunkId{1}, ChunkId{2}}}};

  // An empty fan-out counts nothing.
  fan_mailer.send_many(NodeId{0}, {}, sim::Channel::kDatagram, propose);
  for (const auto& kind : fan_mailer.sent()) EXPECT_EQ(kind.count, 0u);

  fan_mailer.send_many(NodeId{0}, to, sim::Channel::kDatagram, blame);
  fan_mailer.send_many(NodeId{0}, to, sim::Channel::kDatagram, propose);
  for (const Message& m : {blame, propose}) {
    for (const NodeId dst : to) {
      one_mailer.send(NodeId{0}, dst, sim::Channel::kDatagram, m);
    }
  }
  for (std::size_t k = 0; k < fan_mailer.sent().size(); ++k) {
    EXPECT_EQ(fan_mailer.sent()[k].count, one_mailer.sent()[k].count) << k;
    EXPECT_EQ(fan_mailer.sent()[k].bytes, one_mailer.sent()[k].bytes) << k;
  }
  const auto& blames = fan_mailer.sent()[kind_index<BlameMsg>()];
  EXPECT_EQ(blames.count, to.size());
  EXPECT_EQ(blames.bytes, to.size() * wire_size(blame));
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
  constexpr std::uint32_t kPer = RingLog<StampBase::Stamp>::kPerPage;
  DeliveryLog log;
  const auto at = [](std::uint32_t id) {
    return kSimEpoch + milliseconds(10) * id;
  };
  for (std::uint32_t i = 0; i < 10 * kPer; ++i) {
    if (i % 7 != 3) log.record(ChunkId{i}, at(i));  // with gaps
  }
  const std::size_t delivered = log.size();
  const std::size_t idle = detail::BlockPool::idle_blocks(kPageBytes);
  // A fold line inside page 4: pages 0..3 are released, page 4 stays.
  const std::uint32_t fold = 4 * kPer + kPer / 2;
  log.compact_before(ChunkId{fold});
  EXPECT_EQ(detail::BlockPool::idle_blocks(kPageBytes), idle + 4);
  EXPECT_EQ(log.window_base(), ChunkId{fold});
  EXPECT_EQ(log.size(), delivered);
  std::size_t folded = 0;
  for (std::uint32_t i = 0; i < 10 * kPer; ++i) {
    const ChunkId id{i};
    ASSERT_EQ(log.contains(id), i % 7 != 3) << i;
    if (i < fold && log.contains(id)) ++folded;
    const auto t = log.find(id);
    if (i < fold || i % 7 == 3) {
      ASSERT_FALSE(t) << i;
    } else {
      ASSERT_TRUE(t) << i;
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
  EXPECT_EQ(detail::BlockPool::idle_blocks(kPageBytes), idle + 10);
  log.record(ChunkId{12 * kPer + 3}, at(5));
  ASSERT_TRUE(log.find(ChunkId{12 * kPer + 3}));
  EXPECT_EQ(*log.find(ChunkId{12 * kPer + 3}), at(5));
  EXPECT_FALSE(log.find(ChunkId{12 * kPer}));
}

TEST(DeliveryLog, ExactTimesAcrossAGapPastTheStampReach) {
  // Chunks from page 4 on arrive 75 min later than the first record, past
  // a stamp's 71.6 min reach: their times go to the exception list, some
  // out of id order, and every read still returns them exactly.
  constexpr std::uint32_t kPer = RingLog<StampBase::Stamp>::kPerPage;
  const Duration gap = std::chrono::minutes(75);
  const auto at = [&](std::uint32_t id) {
    return kSimEpoch + seconds(3.0) + milliseconds(10) * id +
           (id >= 4 * kPer ? gap : Duration::zero());
  };
  const auto delivered = [](std::uint32_t id) { return id % 5 != 2; };
  DeliveryLog log;
  for (std::uint32_t i = 0; i < 6 * kPer; ++i) {
    if (delivered(i)) log.record(ChunkId{i}, at(i));
  }
  for (std::uint32_t i = 8 * kPer; i-- > 6 * kPer;) {  // newest first
    if (delivered(i)) log.record(ChunkId{i}, at(i));
  }
  const auto expect_exact = [&](std::uint32_t from) {
    for (std::uint32_t i = 0; i < 8 * kPer; ++i) {
      const auto t = log.find(ChunkId{i});
      if (i < from || !delivered(i)) {
        ASSERT_FALSE(t) << i;
      } else {
        ASSERT_TRUE(t) << i;
        EXPECT_EQ(*t, at(i)) << i;
      }
    }
    std::size_t iterated = 0;
    for (const auto& [id, t] : log) {
      EXPECT_GE(id.value(), from);
      EXPECT_EQ(t, at(id.value())) << id.value();
      ++iterated;
    }
    std::size_t want = 0;
    for (std::uint32_t i = from; i < 8 * kPer; ++i) want += delivered(i);
    EXPECT_EQ(iterated, want);
  };
  expect_exact(0);
  EXPECT_EQ(log.pages(), 8u);

  // Folding past the gap still hands back whole pages, and the times left
  // on both sides of the fold line stay exact.
  const std::size_t idle = detail::BlockPool::idle_blocks(kPageBytes);
  const std::uint32_t fold = 5 * kPer + 7;
  log.compact_before(ChunkId{fold});
  EXPECT_EQ(detail::BlockPool::idle_blocks(kPageBytes), idle + 5);
  EXPECT_EQ(log.pages(), 3u);
  expect_exact(fold);
}

TEST(StreamSource, EmitsAtConfiguredRate) {
  sim::Simulator sim;
  membership::Directory dir(2);
  sim::Network<Message> net(sim, Pcg32{904});
  Mailer mailer(net);
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
