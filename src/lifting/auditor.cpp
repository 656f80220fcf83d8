#include "lifting/auditor.hpp"

#include <algorithm>
#include <unordered_map>

#include "stats/entropy.hpp"

namespace lifting {

void Auditor::start_audit(NodeId target) {
  Audit audit;
  audit.id = next_id_++;
  audit.subject = target;
  audit.report.subject = target;
  audits_[target] = std::move(audit);
  ++audits_started_;
  send_(target, gossip::AuditRequestMsg{audits_[target].id});
  sim_.schedule_after(params_.audit_poll_timeout,
                      [this, target, id = audits_[target].id] {
                        on_history_deadline(target, id);
                      });
}

void Auditor::on_history_deadline(NodeId subject, std::uint32_t id) {
  const auto it = audits_.find(subject);
  if (it == audits_.end() || it->second.id != id) return;
  if (!it->second.history.empty() || it->second.finished) return;
  // The subject never answered the (reliable) audit request: refusing to be
  // audited is itself grounds for expulsion — otherwise freeriders would
  // simply stay silent.
  it->second.report.rate_check_failed = true;
  finish(it->second);
}

void Auditor::on_history(NodeId from, const gossip::AuditHistoryMsg& msg) {
  const auto it = audits_.find(from);
  if (it == audits_.end() || it->second.id != msg.audit_id ||
      it->second.finished) {
    return;
  }
  auto& audit = it->second;
  audit.history = msg.proposals;
  audit.report.history_entries = audit.history.size();

  // --- Gossip-rate check (§5.3): with a correct fanout the number of
  // proposals in the history reveals the gossip period. Tolerate slack for
  // lossy startup; blame f per missing proposal below the tolerated floor.
  const auto expected = static_cast<double>(params_.history_periods());
  const auto floor_count = params_.rate_tolerance * expected;
  if (static_cast<double>(audit.history.size()) < floor_count) {
    const double missing =
        floor_count - static_cast<double>(audit.history.size());
    blame_(from, missing * static_cast<double>(params_.fanout),
           gossip::BlameReason::kRateCheck);
    audit.report.rate_check_failed = true;
  }

  // --- Fanout entropy check (§5.3, Eq. 1): H(F_h) >= γ or expulsion.
  std::vector<NodeId> fanout_multiset;
  for (const auto& rec : audit.history) {
    fanout_multiset.insert(fanout_multiset.end(), rec.partners.begin(),
                           rec.partners.end());
  }
  audit.report.fanout_entropy = stats::multiset_entropy<NodeId>(
      {fanout_multiset.data(), fanout_multiset.size()});
  if (audit.report.fanout_entropy < params_.gamma) {
    audit.report.fanout_check_failed = true;
    finish(audit);
    return;
  }

  // --- A-posteriori cross-check: poll each distinct partner with the
  // claims that name it.
  std::unordered_map<NodeId, std::vector<gossip::HistoryProposalRecord>>
      claims_by_partner;
  for (const auto& rec : audit.history) {
    for (const auto partner : rec.partners) {
      if (partner == self_ || partner == from) continue;
      auto& claims = claims_by_partner[partner];
      if (!claims.empty() && claims.back().period == rec.period) continue;
      gossip::HistoryProposalRecord claim;
      claim.period = rec.period;
      claim.chunks = rec.chunks;
      claims.push_back(std::move(claim));
    }
  }
  if (claims_by_partner.empty()) {
    finish(audit);
    return;
  }
  audit.polls_outstanding = claims_by_partner.size();
  for (auto& [partner, claims] : claims_by_partner) {
    send_(partner,
          gossip::HistoryPollMsg{audit.id, from, std::move(claims)});
  }
  sim_.schedule_after(params_.audit_poll_timeout,
                      [this, subject = from, id = audit.id] {
                        on_poll_deadline(subject, id);
                      });
}

void Auditor::on_poll_response(NodeId /*from*/,
                               const gossip::HistoryPollRespMsg& msg) {
  const auto it = audits_.find(msg.subject);
  if (it == audits_.end() || it->second.id != msg.audit_id ||
      it->second.finished) {
    return;
  }
  auto& audit = it->second;
  audit.confirmed += msg.confirmed;
  audit.denied += msg.denied;
  audit.askers.insert(audit.askers.end(), msg.confirm_askers.begin(),
                      msg.confirm_askers.end());
  if (audit.polls_outstanding > 0) --audit.polls_outstanding;
  if (audit.polls_outstanding == 0) finish(audit);
}

void Auditor::on_poll_deadline(NodeId subject, std::uint32_t id) {
  const auto it = audits_.find(subject);
  if (it == audits_.end() || it->second.id != id || it->second.finished) {
    return;
  }
  finish(it->second);
}

void Auditor::finish(Audit& audit) {
  audit.finished = true;
  auto& report = audit.report;
  report.confirmed = audit.confirmed;
  report.denied = audit.denied;
  report.fanin_samples = audit.askers.size();

  // A-posteriori cross-check blames: 1 per denied claim (§5.3). The
  // managers subtract the expected loss-induced denials (Eq. 4).
  if (audit.denied > 0) {
    blame_(audit.subject, static_cast<double>(audit.denied),
           gossip::BlameReason::kAposterioriCheck);
  }

  // Fan-in entropy check over F'_h (man-in-the-middle detector, §5.3).
  // Only meaningful when cross-checking actually generates confirm
  // traffic and enough samples were collected.
  if (p_dcc_ > 0.0 &&
      audit.askers.size() >= params_.min_fanin_samples) {
    report.fanin_entropy = stats::multiset_entropy<NodeId>(
        {audit.askers.data(), audit.askers.size()});
    if (report.fanin_entropy < params_.gamma) {
      report.fanin_check_failed = true;
    }
  }

  report.expelled = report.fanout_check_failed || report.fanin_check_failed ||
                    (report.rate_check_failed && audit.history.empty());
  if (report.expelled) expel_(audit.subject);
  if (report_) report_(report);
  audits_.erase(audit.subject);
}

}  // namespace lifting
