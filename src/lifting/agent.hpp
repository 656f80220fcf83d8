#ifndef LIFTING_LIFTING_AGENT_HPP
#define LIFTING_LIFTING_AGENT_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "gossip/behavior.hpp"
#include "gossip/engine.hpp"
#include "gossip/mailer.hpp"
#include "gossip/message.hpp"
#include "lifting/auditor.hpp"
#include "lifting/history.hpp"
#include "lifting/managers.hpp"
#include "lifting/params.hpp"
#include "lifting/verifier.hpp"
#include "membership/directory.hpp"
#include "sim/simulator.hpp"

/// The per-node LiFTinG agent — the paper's contribution assembled:
/// direct verification, direct cross-checking, the manager-based blaming
/// architecture with loss compensation, score-based expulsion, and local
/// history auditing. It observes the gossip engine's protocol events and
/// owns every verification message on the wire.
///
/// Freerider behavior (lying acks are in the engine) shows up here as:
/// coalition cover-ups in confirm/poll answers, withheld blames against
/// coalition members, inflated score replies for coalition members when
/// acting as their manager, and doctored audit replies.

namespace lifting {

class Agent final : public gossip::EngineObserver {
 public:
  struct Hooks {
    /// A manager committed an expulsion (first local transition).
    std::function<void(NodeId victim, NodeId manager, bool from_audit)>
        on_expulsion_committed;
    /// Ground-truth blame ledger (once per emission, before manager fanout).
    std::function<void(NodeId by, NodeId target, double value,
                       gossip::BlameReason)>
        on_blame_emitted;
    /// A completed audit report (auditor side).
    std::function<void(NodeId auditor, const AuditReport&)> on_audit_report;
  };

  /// The hooks of a deployment that observes nothing.
  [[nodiscard]] static const Hooks& no_hooks() {
    static const Hooks none;
    return none;
  }

  /// `params` and `hooks` are held by reference — one of each per
  /// deployment, which must outlive its agents; the owner validates
  /// `params`. `assignment` shares one deployment-wide manager
  /// table among agents (it is a pure function of (n, M, seed)); when
  /// null, the agent builds its own — convenient for standalone agents in
  /// tests.
  Agent(sim::Simulator& sim, gossip::Mailer& mailer,
        membership::Directory& directory, NodeId self,
        const LiftingParams& params, gossip::BehaviorSpec behavior,
        Pcg32 rng, std::uint64_t deployment_seed, TimePoint genesis,
        const Hooks& hooks = no_hooks(),
        std::shared_ptr<ManagerAssignment> assignment = nullptr);
  ~Agent() override;

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Starts the periodic maintenance tick (log pruning, score checks,
  /// audit triggers) after `offset`.
  void start(Duration offset);

  /// Retires the agent (node left or crashed): the maintenance tick stops
  /// rescheduling and no further blames are emitted. Pending one-shot
  /// timers land on live memory and fizzle — the agent object must outlive
  /// the last event that references it.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Replaces the node's behavior mid-run (timeline set_behavior events).
  void set_behavior(gossip::BehaviorSpec behavior) {
    behavior_ = std::move(behavior);
  }

  /// Arms the flight recorder (DESIGN.md §13) on this agent and its
  /// verifiers: verdicts, blame rows, score reads, expulsion ballots and
  /// served audits. Null disarms (the default — nothing is recorded).
  void set_trace(obs::Recorder* trace) noexcept;

  /// Routes a LiFTinG message (anything that is not propose/request/serve/
  /// ack) to the agent.
  void handle(NodeId from, const gossip::Message& message);

  // --- EngineObserver
  void on_propose_received(NodeId from, PeriodIndex period,
                           const gossip::ChunkIdList& chunks) override;
  void on_request_sent(NodeId proposer, PeriodIndex period,
                       const gossip::ChunkIdList& chunks) override;
  void on_serve_received(NodeId sender, NodeId ack_to, PeriodIndex period,
                         ChunkId chunk) override;
  void on_chunks_served(NodeId receiver, PeriodIndex period,
                        const gossip::ChunkIdList& chunks) override;
  void on_proposal_sent(PeriodIndex period,
                        const std::vector<NodeId>& claimed_partners,
                        const std::vector<NodeId>& real_partners,
                        const gossip::ChunkIdList& chunks) override;
  void on_ack_received(NodeId from, const gossip::AckMsg& ack) override;

  /// Requests an audit of `target` (also available to external policy).
  /// Only an auditing deployment (audit_probability > 0) may audit: the
  /// others keep no audit trail, so their nodes' histories would be empty.
  void audit(NodeId target);

  /// Requests a min-vote score read followed by the expulsion protocol if
  /// the score is below η (also used by the periodic policy).
  void score_check(NodeId target);

  /// One completed feedback score read (probe_score below).
  struct ScoreFeedback {
    double score = 0.0;          ///< min-vote over the replies that arrived
    std::size_t replies = 0;     ///< 0 = no manager answered in time
    bool expelled_hint = false;  ///< a reply carried the expulsion mark
  };
  using ScoreFeedbackFn = std::function<void(const ScoreFeedback&)>;

  /// Runs a §5.1 score read about `target` purely as *feedback*: the same
  /// query datagrams, manager replies and reply deadline as score_check,
  /// but the outcome is handed to `on_done` (exactly once, at the
  /// deadline) instead of feeding the expulsion protocol. This is the
  /// manager score-feedback channel the adaptive adversaries use to probe
  /// their own standing (src/adversary/) — anyone can query anyone's
  /// managers, so a freerider asking about itself is protocol-legal and
  /// costs it real query bandwidth. A retired agent reports zero replies.
  void probe_score(NodeId target, ScoreFeedbackFn on_done);

  // --- introspection for experiments and tests
  [[nodiscard]] const ManagerStore& manager_store() const noexcept {
    return managers_;
  }
  [[nodiscard]] ManagerStore& manager_store() noexcept { return managers_; }
  /// The deployment's parameters; the working p_dcc is current_pdcc().
  [[nodiscard]] const LiftingParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] double blame_emitted_total() const noexcept {
    return blame_emitted_total_;
  }
  /// Audit requests answered so far — the one detection-pressure signal
  /// the protocol leaks to its *subject* (auditors must ask the audited
  /// node for its history, §5.3). The adversary layer reads it as a
  /// received-blame proxy.
  [[nodiscard]] std::uint64_t audit_requests_received() const noexcept {
    return audit_requests_received_;
  }
  /// The working cross-check probability (== configured p_dcc unless
  /// adaptive_pdcc has decayed it during clean periods).
  [[nodiscard]] double current_pdcc() const noexcept { return p_dcc_; }
  [[nodiscard]] const ReceivedProposalLog& received_log() const noexcept {
    return received_log_;
  }
  /// Bytes the verifiers' tracker tables hold (DirectVerifier and
  /// CrossChecker capacity).
  [[nodiscard]] std::size_t verifier_table_bytes() const noexcept {
    return direct_verifier_.table_bytes() + cross_checker_.table_bytes();
  }
  /// The audit trail, or null when the deployment does not audit.
  [[nodiscard]] const AuditTrail* audit_trail() const noexcept;

  /// Delivery-health counters of the reliable-UDP audit channel, kept per
  /// audit kind and summed by audit_channel_totals(). All-zero in the
  /// default modeled-TCP mode.
  struct AuditChannelStats {
    std::uint64_t sends = 0;            ///< first transmissions
    std::uint64_t retries = 0;          ///< backoff retransmissions
    std::uint64_t give_ups = 0;         ///< retry budget exhausted
    std::uint64_t acks_received = 0;    ///< pending entries cancelled
    std::uint64_t dups_suppressed = 0;  ///< receiver-side duplicate drops

    AuditChannelStats& operator+=(const AuditChannelStats& other) {
      sends += other.sends;
      retries += other.retries;
      give_ups += other.give_ups;
      acks_received += other.acks_received;
      dups_suppressed += other.dups_suppressed;
      return *this;
    }
  };
  [[nodiscard]] AuditChannelStats audit_channel_totals() const noexcept;
  /// Duplicated blame datagrams dropped by the receiver-side window
  /// (LiftingParams::blame_dedup_window; zero when the window is off).
  [[nodiscard]] std::uint64_t blame_dups_suppressed() const noexcept {
    return blame_dups_suppressed_;
  }

 private:
  void tick();
  void emit_blame(NodeId target, double value, gossip::BlameReason reason);
  void send_datagram(NodeId to, gossip::Message msg);
  void send_reliable(NodeId to, gossip::Message msg);
  /// Sends `msg` (datagram) to every manager of `target` in manager order;
  /// when this node is one of them, `local()` runs at its place instead —
  /// the managers before it are sent to first, those after it next — so
  /// event, rng and trace order match a per-manager loop exactly.
  template <typename Local>
  void to_managers(NodeId target, const gossip::Message& msg, Local&& local);
  [[nodiscard]] std::span<const NodeId> managers_for(NodeId target);
  [[nodiscard]] bool is_manager_of(NodeId target);
  void handle_confirm_request(NodeId from, const gossip::ConfirmReqMsg& msg);
  void handle_blame(NodeId from, const gossip::BlameMsg& msg);
  void handle_score_query(NodeId from, const gossip::ScoreQueryMsg& msg);
  void handle_score_reply(NodeId from, const gossip::ScoreReplyMsg& msg);
  void handle_expel_request(NodeId from, const gossip::ExpelRequestMsg& msg);
  void handle_expel_vote(NodeId from, const gossip::ExpelVoteMsg& msg);
  void handle_expel_commit(const gossip::ExpelCommitMsg& msg);
  void handle_audit_request(NodeId from, const gossip::AuditRequestMsg& msg);
  void handle_history_poll(NodeId from, const gossip::HistoryPollMsg& msg);

  /// What only an auditing node uses (§5.3): the auditor and the audit
  /// trail. Defined in agent.cpp.
  struct AuditState;
  /// Retries, acks and duplicate suppression of the reliable-UDP audit
  /// channel. Defined in agent.cpp.
  struct AuditChannel;

  // ---- reliable-UDP audit channel (inert under kModeledTcp)
  /// The channel state, taken on first use: the first reliable send, or the
  /// first audit message to ack (which also reaches a node that does not
  /// audit when a stray or hostile request arrives).
  [[nodiscard]] AuditChannel& channel();
  [[nodiscard]] Duration retry_backoff(std::uint32_t attempt);
  void arm_retry(std::uint64_t token);
  void on_retry_timer(std::uint64_t token);
  void handle_audit_ack(NodeId from, const gossip::AuditAckMsg& msg);
  /// Receiver preamble for incoming audit kinds: acks every copy (the
  /// previous ack may have been lost) and reports true when the message is
  /// a recently seen duplicate that must not be re-processed.
  [[nodiscard]] bool audit_dedup_and_ack(NodeId from,
                                         const gossip::Message& msg);
  [[nodiscard]] bool blame_is_duplicate(NodeId from,
                                        const gossip::BlameMsg& msg);
  /// Fans the score queries out to `target`'s managers and arms the reply
  /// deadline — shared by score_check (expulsion path) and probe_score
  /// (feedback path, `probe` set).
  void begin_score_read(NodeId target, ScoreFeedbackFn probe);
  void finish_score_read(std::uint32_t query_id);
  void finish_expel_vote(NodeId target);
  void note_contact(NodeId id);
  [[nodiscard]] bool old_enough_for_detection(TimePoint now) const;

  sim::Simulator& sim_;
  gossip::Mailer& mailer_;
  membership::Directory& directory_;
  NodeId self_;
  const LiftingParams& params_;
  /// The working cross-check probability: params_.p_dcc unless adaptive
  /// decay moved it. The CrossChecker and the Auditor read it by
  /// reference.
  double p_dcc_;
  gossip::BehaviorSpec behavior_;
  Pcg32 rng_;
  std::uint64_t deployment_seed_;
  TimePoint genesis_;
  const Hooks& hooks_;
  obs::Recorder* trace_ = nullptr;

  std::shared_ptr<ManagerAssignment> assignment_;
  ManagerStore managers_;
  DirectVerifier direct_verifier_;
  CrossChecker cross_checker_;
  /// Set only when the deployment audits (audit_probability > 0); null
  /// until channel() first runs. Both blocks come from (and go back to)
  /// the block pool, so reset lanes recycle them.
  RecycledPtr<AuditState> audit_;
  RecycledPtr<AuditChannel> channel_;

  ReceivedProposalLog received_log_;

  std::vector<NodeId> recent_contacts_;

  struct PendingScoreRead {
    NodeId target;
    std::vector<double> replies;
    /// Managers whose reply was counted — one reply per manager, so a
    /// transport-duplicated reply cannot make an under-replicated read
    /// look like it met min_score_replies.
    std::vector<NodeId> repliers;
    bool target_already_expelled = false;
    /// Set for probe reads: the deadline reports here and the expulsion
    /// machinery is skipped.
    ScoreFeedbackFn probe;
  };
  std::unordered_map<std::uint32_t, PendingScoreRead> score_reads_;
  std::uint32_t next_query_id_ = 1;

  struct PendingExpelVote {
    std::size_t yes = 0;
    std::size_t total_managers = 0;
    bool committed = false;
    /// Managers whose ballot was counted — a transport-duplicated agree
    /// vote must not reach a majority by itself.
    std::vector<NodeId> voters;
  };
  std::unordered_map<NodeId, PendingExpelVote> expel_votes_;
  std::unordered_set<NodeId> expel_requested_;

  /// Windowed blame dedup (LiftingParams::blame_dedup_window): recently
  /// applied network blames, so an exact transport-level duplicate cannot
  /// double-count in the manager ledger.
  struct SeenBlame {
    NodeId from;
    NodeId target;
    std::uint64_t value_bits = 0;
    gossip::BlameReason reason = gossip::BlameReason::kDirectVerification;
    TimePoint at;
  };
  std::vector<SeenBlame> seen_blames_;
  std::size_t seen_blames_head_ = 0;
  std::uint64_t blame_dups_suppressed_ = 0;

  double blame_emitted_total_ = 0.0;
  std::uint64_t audit_requests_received_ = 0;
  double blame_emitted_this_period_ = 0.0;
  double blame_rate_ewma_ = 0.0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace lifting

#endif  // LIFTING_LIFTING_AGENT_HPP
