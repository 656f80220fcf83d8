#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "lifting/verifier.hpp"
#include "sim/simulator.hpp"

namespace lifting {
namespace {

struct BlameRecord {
  NodeId target;
  double value;
  gossip::BlameReason reason;
};

struct VerifierFixture {
  VerifierFixture() {
    params.fanout = 7;
    params.period = milliseconds(500);
    params.dv_timeout = milliseconds(500);
    params.ack_timeout = milliseconds(900);
    params.confirm_timeout = milliseconds(300);
    params.p_dcc = 1.0;
  }

  BlameFn blame_fn() {
    return [this](NodeId t, double v, gossip::BlameReason r) {
      blames.push_back({t, v, r});
    };
  }
  SendManyFn send_fn() {
    return [this](std::span<const NodeId> to, const gossip::Message& m) {
      for (const NodeId dst : to) sent.emplace_back(dst, m);
    };
  }

  [[nodiscard]] double total_blame(NodeId target) const {
    double sum = 0.0;
    for (const auto& b : blames) {
      if (b.target == target) sum += b.value;
    }
    return sum;
  }

  sim::Simulator sim;
  LiftingParams params;
  std::vector<BlameRecord> blames;
  std::vector<std::pair<NodeId, gossip::Message>> sent;
  Pcg32 rng{404};
};

// -------------------------------------------------------- DirectVerifier

TEST(DirectVerifier, NoBlameWhenAllChunksServed) {
  VerifierFixture fx;
  DirectVerifier dv(fx.sim, fx.params, fx.blame_fn());
  const gossip::ChunkIdList r{ChunkId{1}, ChunkId{2}, ChunkId{3}};
  dv.on_request_sent(NodeId{9}, 1, r);
  for (const auto c : r) dv.on_serve_received(NodeId{9}, 1, c);
  fx.sim.run();
  EXPECT_TRUE(fx.blames.empty());
  EXPECT_EQ(dv.verifications_completed(), 1u);
}

TEST(DirectVerifier, BlamesFWhenNothingServed) {
  VerifierFixture fx;
  DirectVerifier dv(fx.sim, fx.params, fx.blame_fn());
  dv.on_request_sent(NodeId{9}, 1, {ChunkId{1}, ChunkId{2}});
  fx.sim.run();
  ASSERT_EQ(fx.blames.size(), 1u);
  EXPECT_EQ(fx.blames[0].target, NodeId{9});
  EXPECT_DOUBLE_EQ(fx.blames[0].value, 7.0);  // f
  EXPECT_EQ(fx.blames[0].reason, gossip::BlameReason::kDirectVerification);
}

TEST(DirectVerifier, BlamesProportionallyForPartialServe) {
  VerifierFixture fx;
  DirectVerifier dv(fx.sim, fx.params, fx.blame_fn());
  const gossip::ChunkIdList r{ChunkId{1}, ChunkId{2}, ChunkId{3}, ChunkId{4}};
  dv.on_request_sent(NodeId{9}, 1, r);
  dv.on_serve_received(NodeId{9}, 1, ChunkId{1});
  fx.sim.run();
  // Table 1: f·(|R|-|S|)/|R| = 7·3/4.
  ASSERT_EQ(fx.blames.size(), 1u);
  EXPECT_DOUBLE_EQ(fx.blames[0].value, 7.0 * 3.0 / 4.0);
}

TEST(DirectVerifier, LateServeStillBlamed) {
  VerifierFixture fx;
  DirectVerifier dv(fx.sim, fx.params, fx.blame_fn());
  dv.on_request_sent(NodeId{9}, 1, {ChunkId{1}});
  fx.sim.schedule_after(milliseconds(600), [&] {
    dv.on_serve_received(NodeId{9}, 1, ChunkId{1});  // after the deadline
  });
  fx.sim.run();
  ASSERT_EQ(fx.blames.size(), 1u);
  EXPECT_DOUBLE_EQ(fx.blames[0].value, 7.0);
}

TEST(DirectVerifier, SeparateRequestsTrackedIndependently) {
  VerifierFixture fx;
  DirectVerifier dv(fx.sim, fx.params, fx.blame_fn());
  dv.on_request_sent(NodeId{9}, 1, {ChunkId{1}});
  dv.on_request_sent(NodeId{8}, 1, {ChunkId{2}});
  dv.on_serve_received(NodeId{9}, 1, ChunkId{1});
  fx.sim.run();
  ASSERT_EQ(fx.blames.size(), 1u);
  EXPECT_EQ(fx.blames[0].target, NodeId{8});
}

TEST(DirectVerifier, EmptyRequestIsIgnored) {
  VerifierFixture fx;
  DirectVerifier dv(fx.sim, fx.params, fx.blame_fn());
  dv.on_request_sent(NodeId{9}, 1, {});
  fx.sim.run();
  EXPECT_TRUE(fx.blames.empty());
  EXPECT_EQ(dv.verifications_completed(), 0u);
}

TEST(DirectVerifier, LongRequestSpillsAndBlamesOnlyTheUnserved) {
  // 28 ids spill past the tracker's inline capacity. Other requests are
  // inserted before and after it, so the sorted pending table moves the
  // spilled set around; serves arrive out of order, one twice, and 5 ids
  // never arrive.
  VerifierFixture fx;
  DirectVerifier dv(fx.sim, fx.params, fx.blame_fn());
  gossip::ChunkIdList r;
  for (std::uint32_t i = 0; i < 28; ++i) r.push_back(ChunkId{100 + 3 * i});
  fx.rng.shuffle(r);
  dv.on_request_sent(NodeId{6}, 1, {ChunkId{1}});
  dv.on_request_sent(NodeId{9}, 1, r);
  dv.on_request_sent(NodeId{3}, 1, {ChunkId{2}});
  dv.on_request_sent(NodeId{9}, 2, {ChunkId{4}});
  dv.on_serve_received(NodeId{3}, 1, ChunkId{2});
  dv.on_serve_received(NodeId{6}, 1, ChunkId{1});
  dv.on_serve_received(NodeId{9}, 2, ChunkId{4});
  gossip::ChunkIdList served(r.begin() + 5, r.end());
  fx.rng.shuffle(served);
  for (const auto c : served) dv.on_serve_received(NodeId{9}, 1, c);
  dv.on_serve_received(NodeId{9}, 1, served[7]);  // duplicate serve
  fx.sim.run();
  ASSERT_EQ(fx.blames.size(), 1u);
  EXPECT_EQ(fx.blames[0].target, NodeId{9});
  EXPECT_DOUBLE_EQ(fx.blames[0].value, 7.0 * 5.0 / 28.0);  // f·5/28
  EXPECT_EQ(fx.blames[0].reason, gossip::BlameReason::kDirectVerification);
  EXPECT_EQ(dv.verifications_completed(), 4u);
}

// ---------------------------------------------------------- CrossChecker

gossip::AckMsg make_ack(PeriodIndex period, gossip::ChunkIdList chunks,
                        std::size_t partners, std::uint32_t first = 20) {
  gossip::AckMsg ack;
  ack.period = period;
  ack.chunks = std::move(chunks);
  for (std::size_t i = 0; i < partners; ++i) {
    ack.partners.push_back(NodeId{first + static_cast<std::uint32_t>(i)});
  }
  return ack;
}

TEST(CrossChecker, BlamesFWhenNoAckArrives) {
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_chunks_served(NodeId{5}, 2, {ChunkId{1}, ChunkId{2}});
  fx.sim.run();
  ASSERT_EQ(fx.blames.size(), 1u);
  EXPECT_EQ(fx.blames[0].target, NodeId{5});
  EXPECT_DOUBLE_EQ(fx.blames[0].value, 7.0);
  EXPECT_EQ(fx.blames[0].reason, gossip::BlameReason::kInvalidAck);
}

TEST(CrossChecker, BlamesFWhenAckMissesChunks) {
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_chunks_served(NodeId{5}, 2, {ChunkId{1}, ChunkId{2}});
  cc.on_ack_received(NodeId{5}, make_ack(3, {ChunkId{1}}, 7));
  fx.sim.run();
  double invalid = 0.0;
  for (const auto& b : fx.blames) {
    if (b.reason == gossip::BlameReason::kInvalidAck) invalid += b.value;
  }
  EXPECT_DOUBLE_EQ(invalid, 7.0);
}

TEST(CrossChecker, ValidAckTriggersConfirmRound) {
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_chunks_served(NodeId{5}, 2, {ChunkId{1}});
  cc.on_ack_received(NodeId{5}, make_ack(3, {ChunkId{1}}, 7));
  EXPECT_EQ(cc.confirm_rounds_started(), 1u);
  EXPECT_EQ(fx.sent.size(), 7u);  // one confirm per witness
  for (const auto& [to, msg] : fx.sent) {
    const auto* req = std::get_if<gossip::ConfirmReqMsg>(&msg);
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->subject, NodeId{5});
    EXPECT_EQ(req->subject_period, 3u);
  }
}

TEST(CrossChecker, AllYesTestimoniesMeanNoBlame) {
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_chunks_served(NodeId{5}, 2, {ChunkId{1}});
  cc.on_ack_received(NodeId{5}, make_ack(3, {ChunkId{1}}, 7));
  for (std::uint32_t w = 20; w < 27; ++w) {
    cc.on_confirm_response(NodeId{w},
                           gossip::ConfirmRespMsg{NodeId{5}, 3, true});
  }
  fx.sim.run();
  EXPECT_DOUBLE_EQ(fx.total_blame(NodeId{5}), 0.0);
}

TEST(CrossChecker, BlamesOnePerContradictionOrSilence) {
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_chunks_served(NodeId{5}, 2, {ChunkId{1}});
  cc.on_ack_received(NodeId{5}, make_ack(3, {ChunkId{1}}, 7));
  // 3 yes, 2 no, 2 silent => 4 failures.
  for (std::uint32_t w = 20; w < 23; ++w) {
    cc.on_confirm_response(NodeId{w},
                           gossip::ConfirmRespMsg{NodeId{5}, 3, true});
  }
  for (std::uint32_t w = 23; w < 25; ++w) {
    cc.on_confirm_response(NodeId{w},
                           gossip::ConfirmRespMsg{NodeId{5}, 3, false});
  }
  fx.sim.run();
  double testimony = 0.0;
  for (const auto& b : fx.blames) {
    if (b.reason == gossip::BlameReason::kTestimony) testimony += b.value;
  }
  EXPECT_DOUBLE_EQ(testimony, 4.0);
}

TEST(CrossChecker, FanoutShortfallBlamedFromAck) {
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_chunks_served(NodeId{5}, 2, {ChunkId{1}});
  cc.on_ack_received(NodeId{5}, make_ack(3, {ChunkId{1}}, 4));  // f̂=4 < f=7
  fx.sim.run();
  double fanout = 0.0;
  for (const auto& b : fx.blames) {
    if (b.reason == gossip::BlameReason::kFanoutDecrease) fanout += b.value;
  }
  EXPECT_DOUBLE_EQ(fanout, 3.0);  // f - f̂
}

TEST(CrossChecker, PdccZeroNeverSendsConfirms) {
  VerifierFixture fx;
  fx.params.p_dcc = 0.0;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_chunks_served(NodeId{5}, 2, {ChunkId{1}});
  cc.on_ack_received(NodeId{5}, make_ack(3, {ChunkId{1}}, 7));
  fx.sim.run();
  EXPECT_EQ(cc.confirm_rounds_started(), 0u);
  EXPECT_TRUE(fx.sent.empty());
  EXPECT_TRUE(fx.blames.empty());  // valid ack, no confirm round, no blame
}

TEST(CrossChecker, UnsolicitedAckIgnored) {
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_ack_received(NodeId{5}, make_ack(3, {ChunkId{1}}, 2));
  fx.sim.run();
  EXPECT_TRUE(fx.blames.empty());
  EXPECT_TRUE(fx.sent.empty());
}

TEST(CrossChecker, OneRoundPerReceiverPhaseEvenWithTwoBatches) {
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  cc.on_chunks_served(NodeId{5}, 2, {ChunkId{1}});
  cc.on_chunks_served(NodeId{5}, 3, {ChunkId{2}});
  const auto ack = make_ack(4, {ChunkId{1}, ChunkId{2}}, 7);
  cc.on_ack_received(NodeId{5}, ack);
  cc.on_ack_received(NodeId{5}, ack);  // duplicate delivery
  EXPECT_EQ(cc.confirm_rounds_started(), 1u);
  for (std::uint32_t w = 20; w < 27; ++w) {
    cc.on_confirm_response(NodeId{w},
                           gossip::ConfirmRespMsg{NodeId{5}, 4, true});
  }
  fx.sim.run();
  EXPECT_DOUBLE_EQ(fx.total_blame(NodeId{5}), 0.0);
}

TEST(CrossChecker, LongBatchCoveredByShuffledAck) {
  // A 28-chunk batch spills past the tracker's inline capacity; a second
  // receiver's batch is inserted before it in the sorted table. The ack
  // lists the 28 chunks shuffled: it covers the batch, so no ack-missing
  // blame reaches the receiver, and one confirm round starts.
  VerifierFixture fx;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  gossip::ChunkIdList chunks;
  for (std::uint32_t i = 0; i < 28; ++i) chunks.push_back(ChunkId{50 + i});
  cc.on_chunks_served(NodeId{5}, 2, chunks);
  cc.on_chunks_served(NodeId{3}, 2, {ChunkId{7}});  // never acked
  fx.rng.shuffle(chunks);
  cc.on_ack_received(NodeId{5}, make_ack(3, chunks, 7));
  EXPECT_EQ(cc.confirm_rounds_started(), 1u);
  ASSERT_EQ(fx.sent.size(), 7u);
  const auto* req = std::get_if<gossip::ConfirmReqMsg>(&fx.sent[0].second);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->chunks.size(), 28u);
  for (std::uint32_t w = 20; w < 27; ++w) {
    cc.on_confirm_response(NodeId{w},
                           gossip::ConfirmRespMsg{NodeId{5}, 3, true});
  }
  fx.sim.run();
  EXPECT_DOUBLE_EQ(fx.total_blame(NodeId{5}), 0.0);
  ASSERT_EQ(fx.blames.size(), 1u);  // only the unacked neighbour
  EXPECT_EQ(fx.blames[0].target, NodeId{3});
  EXPECT_EQ(fx.blames[0].reason, gossip::BlameReason::kInvalidAck);
}

TEST(CrossChecker, FanoutCheckedTableStaysWithinTwiceItsWindow) {
  // Eight receivers ack every period for 200 periods, each ack claiming
  // f̂ = 4. The 16-period window holds 17 periods of pairs; pruning each
  // time the table doubles keeps it within twice that. Replaying an ack
  // from 8 periods back, inside the window, blames nothing new.
  VerifierFixture fx;
  fx.params.p_dcc = 0.0;
  CrossChecker cc(fx.sim, fx.params, fx.params.p_dcc, NodeId{0}, fx.rng,
                  fx.blame_fn(), fx.send_fn());
  constexpr std::uint32_t kReceivers = 8;
  constexpr PeriodIndex kPeriods = 200;
  std::size_t high = 0;
  for (PeriodIndex p = 1; p <= kPeriods; ++p) {
    for (std::uint32_t r = 0; r < kReceivers; ++r) {
      const NodeId to{100 + r};
      cc.on_chunks_served(to, p, {ChunkId{p}});
      cc.on_ack_received(to, make_ack(p, {ChunkId{p}}, 4));
      if (p > 8) cc.on_ack_received(to, make_ack(p - 8, {ChunkId{p}}, 4));
    }
    high = std::max(high, cc.fanout_checked_size());
  }
  EXPECT_LE(high, 2 * 17 * kReceivers);
  fx.sim.run();
  std::size_t fanout_blames = 0;
  for (const auto& b : fx.blames) {
    ASSERT_EQ(b.reason, gossip::BlameReason::kFanoutDecrease);
    EXPECT_DOUBLE_EQ(b.value, 3.0);
    ++fanout_blames;
  }
  EXPECT_EQ(fanout_blames, kPeriods * kReceivers);
}

}  // namespace
}  // namespace lifting
