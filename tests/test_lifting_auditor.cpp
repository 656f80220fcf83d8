#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "lifting/auditor.hpp"
#include "sim/simulator.hpp"

namespace lifting {
namespace {

struct AuditorFixture {
  AuditorFixture() {
    params.fanout = 4;
    params.period = milliseconds(500);
    params.gamma = 5.0;
    params.history_window = seconds(10.0);  // n_h = 20
    params.audit_poll_timeout = seconds(1.0);
    params.min_fanin_samples = 8;
    params.rate_tolerance = 0.5;
    params.p_dcc = 1.0;
    auditor.emplace(
        sim, params, params.p_dcc, NodeId{0},
        [this](NodeId t, double v, gossip::BlameReason r) {
          blames.push_back({t, v, r});
        },
        [this](NodeId to, gossip::Message m) {
          sent.emplace_back(to, std::move(m));
        },
        [this](NodeId t) { expelled.push_back(t); },
        [this](const AuditReport& r) { reports.push_back(r); });
  }

  /// History with `periods` records, distinct partners, distinct chunks.
  [[nodiscard]] static gossip::AuditHistoryMsg good_history(
      std::uint32_t audit_id, std::uint32_t periods, std::uint32_t fanout) {
    gossip::AuditHistoryMsg msg;
    msg.audit_id = audit_id;
    std::uint32_t next_partner = 50;
    std::uint32_t next_chunk = 1000;
    for (std::uint32_t p = 0; p < periods; ++p) {
      gossip::HistoryProposalRecord rec;
      rec.period = p;
      for (std::uint32_t j = 0; j < fanout; ++j) {
        rec.partners.push_back(NodeId{next_partner++});
        rec.chunks.push_back(ChunkId{next_chunk++});
      }
      msg.proposals.push_back(std::move(rec));
    }
    return msg;
  }

  [[nodiscard]] std::uint32_t current_audit_id() const {
    // Deterministic: ids start at 1 and increment per audit.
    return static_cast<std::uint32_t>(auditor->audits_started());
  }

  struct BlameRecord {
    NodeId target;
    double value;
    gossip::BlameReason reason;
  };

  sim::Simulator sim;
  LiftingParams params;
  std::optional<Auditor> auditor;
  std::vector<BlameRecord> blames;
  std::vector<std::pair<NodeId, gossip::Message>> sent;
  std::vector<NodeId> expelled;
  std::vector<AuditReport> reports;
};

TEST(Auditor, StartsWithHistoryRequest) {
  AuditorFixture fx;
  fx.auditor->start_audit(NodeId{7});
  ASSERT_EQ(fx.sent.size(), 1u);
  EXPECT_EQ(fx.sent[0].first, NodeId{7});
  EXPECT_TRUE(
      std::holds_alternative<gossip::AuditRequestMsg>(fx.sent[0].second));
}

TEST(Auditor, SilentSubjectIsExpelled) {
  AuditorFixture fx;
  fx.auditor->start_audit(NodeId{7});
  fx.sim.run();
  ASSERT_EQ(fx.expelled.size(), 1u);
  EXPECT_EQ(fx.expelled[0], NodeId{7});
  ASSERT_EQ(fx.reports.size(), 1u);
  EXPECT_TRUE(fx.reports[0].rate_check_failed);
}

TEST(Auditor, UniformHistoryPassesFanoutEntropy) {
  AuditorFixture fx;
  fx.auditor->start_audit(NodeId{7});
  const auto history = AuditorFixture::good_history(1, 20, 4);
  fx.auditor->on_history(NodeId{7}, history);
  // 80 distinct partners -> entropy log2(80) = 6.32 > γ = 5: polls go out.
  bool polled = false;
  for (const auto& [to, msg] : fx.sent) {
    if (std::holds_alternative<gossip::HistoryPollMsg>(msg)) polled = true;
  }
  EXPECT_TRUE(polled);
  EXPECT_TRUE(fx.expelled.empty());
}

TEST(Auditor, CoalitionHeavyHistoryFailsFanoutEntropy) {
  AuditorFixture fx;
  fx.auditor->start_audit(NodeId{7});
  // All proposals to the same 3 partners: entropy log2(3) = 1.58 < 5.
  gossip::AuditHistoryMsg msg;
  msg.audit_id = 1;
  for (std::uint32_t p = 0; p < 20; ++p) {
    gossip::HistoryProposalRecord rec;
    rec.period = p;
    rec.partners = {NodeId{100}, NodeId{101}, NodeId{102}};
    rec.chunks = {ChunkId{p}};
    msg.proposals.push_back(rec);
  }
  fx.auditor->on_history(NodeId{7}, msg);
  ASSERT_EQ(fx.expelled.size(), 1u);
  EXPECT_EQ(fx.expelled[0], NodeId{7});
  ASSERT_EQ(fx.reports.size(), 1u);
  EXPECT_TRUE(fx.reports[0].fanout_check_failed);
  EXPECT_LT(fx.reports[0].fanout_entropy, 2.0);
}

TEST(Auditor, ShortHistoryBlamedForRate) {
  AuditorFixture fx;
  fx.auditor->start_audit(NodeId{7});
  // 5 records where n_h = 20 and tolerance 0.5 expects >= 10.
  const auto history = AuditorFixture::good_history(1, 5, 4);
  fx.auditor->on_history(NodeId{7}, history);
  fx.sim.run();
  double rate_blame = 0.0;
  for (const auto& b : fx.blames) {
    if (b.reason == gossip::BlameReason::kRateCheck) rate_blame += b.value;
  }
  EXPECT_DOUBLE_EQ(rate_blame, 5.0 * 4.0);  // 5 missing × f
}

TEST(Auditor, DenialsBecomeApccBlames) {
  AuditorFixture fx;
  fx.auditor->start_audit(NodeId{7});
  const auto history = AuditorFixture::good_history(1, 20, 4);
  fx.auditor->on_history(NodeId{7}, history);
  // Answer every poll: first 3 witnesses deny everything, rest confirm.
  int answered = 0;
  for (const auto& [to, msg] : fx.sent) {
    const auto* poll = std::get_if<gossip::HistoryPollMsg>(&msg);
    if (poll == nullptr) continue;
    gossip::HistoryPollRespMsg resp;
    resp.audit_id = poll->audit_id;
    resp.subject = poll->subject;
    if (answered < 3) {
      resp.denied = static_cast<std::uint32_t>(poll->claims.size());
    } else {
      resp.confirmed = static_cast<std::uint32_t>(poll->claims.size());
    }
    ++answered;
    fx.auditor->on_poll_response(to, resp);
  }
  fx.sim.run();
  double apcc = 0.0;
  for (const auto& b : fx.blames) {
    if (b.reason == gossip::BlameReason::kAposterioriCheck) apcc += b.value;
  }
  EXPECT_DOUBLE_EQ(apcc, 3.0);  // one claim per partner per period here
  ASSERT_EQ(fx.reports.size(), 1u);
  EXPECT_EQ(fx.reports[0].denied, 3u);
}

TEST(Auditor, CoalitionAskersFailFaninEntropy) {
  AuditorFixture fx;
  fx.auditor->start_audit(NodeId{7});
  const auto history = AuditorFixture::good_history(1, 20, 4);
  fx.auditor->on_history(NodeId{7}, history);
  // Every witness reports the same two askers: F'_h entropy = 1 < γ.
  for (const auto& [to, msg] : fx.sent) {
    const auto* poll = std::get_if<gossip::HistoryPollMsg>(&msg);
    if (poll == nullptr) continue;
    gossip::HistoryPollRespMsg resp;
    resp.audit_id = poll->audit_id;
    resp.subject = poll->subject;
    resp.confirmed = static_cast<std::uint32_t>(poll->claims.size());
    resp.confirm_askers = {NodeId{200}, NodeId{201}};
    fx.auditor->on_poll_response(to, resp);
  }
  fx.sim.run();
  ASSERT_EQ(fx.reports.size(), 1u);
  EXPECT_TRUE(fx.reports[0].fanin_check_failed);
  ASSERT_EQ(fx.expelled.size(), 1u);
  EXPECT_EQ(fx.expelled[0], NodeId{7});
}

TEST(Auditor, DiverseAskersPassFaninEntropy) {
  AuditorFixture fx;
  fx.auditor->start_audit(NodeId{7});
  const auto history = AuditorFixture::good_history(1, 20, 4);
  fx.auditor->on_history(NodeId{7}, history);
  std::uint32_t next_asker = 300;
  for (const auto& [to, msg] : fx.sent) {
    const auto* poll = std::get_if<gossip::HistoryPollMsg>(&msg);
    if (poll == nullptr) continue;
    gossip::HistoryPollRespMsg resp;
    resp.audit_id = poll->audit_id;
    resp.subject = poll->subject;
    resp.confirmed = static_cast<std::uint32_t>(poll->claims.size());
    resp.confirm_askers = {NodeId{next_asker++}, NodeId{next_asker++}};
    fx.auditor->on_poll_response(to, resp);
  }
  fx.sim.run();
  ASSERT_EQ(fx.reports.size(), 1u);
  EXPECT_FALSE(fx.reports[0].fanin_check_failed);
  EXPECT_TRUE(fx.expelled.empty());
}

TEST(Auditor, FewFaninSamplesSkipsTheCheck) {
  AuditorFixture fx;
  fx.params.min_fanin_samples = 1000;  // unreachable
  fx.auditor.emplace(
      fx.sim, fx.params, fx.params.p_dcc, NodeId{0},
      [&](NodeId, double, gossip::BlameReason) {},
      [&](NodeId to, gossip::Message m) { fx.sent.emplace_back(to, std::move(m)); },
      [&](NodeId t) { fx.expelled.push_back(t); },
      [&](const AuditReport& r) { fx.reports.push_back(r); });
  fx.auditor->start_audit(NodeId{7});
  const auto history = AuditorFixture::good_history(1, 20, 4);
  fx.auditor->on_history(NodeId{7}, history);
  for (const auto& [to, msg] : fx.sent) {
    const auto* poll = std::get_if<gossip::HistoryPollMsg>(&msg);
    if (poll == nullptr) continue;
    gossip::HistoryPollRespMsg resp;
    resp.audit_id = poll->audit_id;
    resp.subject = poll->subject;
    resp.confirmed = static_cast<std::uint32_t>(poll->claims.size());
    resp.confirm_askers = {NodeId{200}};  // coalition-like, but too few
    fx.auditor->on_poll_response(to, resp);
  }
  fx.sim.run();
  ASSERT_EQ(fx.reports.size(), 1u);
  EXPECT_FALSE(fx.reports[0].fanin_check_failed);
}

}  // namespace
}  // namespace lifting
