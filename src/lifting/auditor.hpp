#ifndef LIFTING_LIFTING_AUDITOR_HPP
#define LIFTING_LIFTING_AUDITOR_HPP

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "gossip/message.hpp"
#include "lifting/params.hpp"
#include "sim/simulator.hpp"

/// Local history auditing (paper §5.3), auditor side.
///
/// An audit of a suspected node proceeds in two rounds over TCP:
///  1. Fetch the subject's history of sent proposals (last h seconds).
///     Immediately check (a) the proposal rate (gossip-period compliance)
///     and (b) the Shannon entropy of the fanout multiset F_h against γ.
///  2. Poll every distinct partner named in the history: each reports which
///     claimed proposals it actually received (a-posteriori cross-check —
///     blame 1 per denial) and who asked it to confirm the subject's
///     proposals (reconstructing F'_h, whose entropy is checked against γ
///     to catch man-in-the-middle cover-ups).

namespace lifting {

/// Outcome of a completed audit (also surfaced to experiments).
struct AuditReport {
  NodeId subject;
  double fanout_entropy = 0.0;
  double fanin_entropy = 0.0;
  std::size_t history_entries = 0;
  std::size_t fanin_samples = 0;
  std::uint32_t confirmed = 0;
  std::uint32_t denied = 0;
  bool fanout_check_failed = false;
  bool fanin_check_failed = false;
  bool rate_check_failed = false;
  bool expelled = false;
};

class Auditor {
 public:
  using BlameFn =
      std::function<void(NodeId, double, gossip::BlameReason)>;
  using SendFn = std::function<void(NodeId to, gossip::Message)>;  // TCP
  using ExpelFn = std::function<void(NodeId target)>;
  using ReportFn = std::function<void(const AuditReport&)>;

  /// `p_dcc` is the owner's working cross-check probability (adaptive
  /// decay moves it away from params.p_dcc).
  Auditor(sim::Simulator& sim, const LiftingParams& params,
          const double& p_dcc, NodeId self, BlameFn blame, SendFn send,
          ExpelFn expel, ReportFn report)
      : sim_(sim),
        params_(params),
        p_dcc_(p_dcc),
        self_(self),
        blame_(std::move(blame)),
        send_(std::move(send)),
        expel_(std::move(expel)),
        report_(std::move(report)) {}

  /// Starts an audit of `target`. Concurrent audits of distinct targets
  /// are supported; a second audit of the same target supersedes the first.
  void start_audit(NodeId target);

  /// The subject's history arrived.
  void on_history(NodeId from, const gossip::AuditHistoryMsg& msg);

  /// A polled partner answered.
  void on_poll_response(NodeId from, const gossip::HistoryPollRespMsg& msg);

  [[nodiscard]] std::uint64_t audits_started() const noexcept {
    return audits_started_;
  }

 private:
  struct Audit {
    std::uint32_t id = 0;
    NodeId subject;
    std::vector<gossip::HistoryProposalRecord> history;
    std::size_t polls_outstanding = 0;
    std::uint32_t confirmed = 0;
    std::uint32_t denied = 0;
    std::vector<NodeId> askers;  // F'_h multiset
    AuditReport report;
    bool finished = false;
  };

  void on_history_deadline(NodeId subject, std::uint32_t id);
  void on_poll_deadline(NodeId subject, std::uint32_t id);
  void finish(Audit& audit);

  sim::Simulator& sim_;
  const LiftingParams& params_;
  const double& p_dcc_;
  NodeId self_;
  BlameFn blame_;
  SendFn send_;
  ExpelFn expel_;
  ReportFn report_;

  std::unordered_map<NodeId, Audit> audits_;  // by subject
  std::uint32_t next_id_ = 1;
  std::uint64_t audits_started_ = 0;
};

}  // namespace lifting

#endif  // LIFTING_LIFTING_AUDITOR_HPP
