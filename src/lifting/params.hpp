#ifndef LIFTING_LIFTING_PARAMS_HPP
#define LIFTING_LIFTING_PARAMS_HPP

#include <cstdint>

#include "analysis/formulas.hpp"
#include "common/assert.hpp"
#include "common/stamp.hpp"
#include "common/time.hpp"

/// LiFTinG configuration (paper §5 and §7.1). One instance is shared by all
/// honest nodes of a deployment; it also feeds the analytical compensation
/// model (§6.2).

namespace lifting {

struct LiftingParams {
  // ---- protocol parameters mirrored from the gossip layer
  std::uint32_t fanout = 7;            ///< f
  Duration period = milliseconds(500); ///< Tg
  /// Nominal |R| used by the compensation formulas (the paper uses the
  /// deployment's steady-state average; §6.2 assumes it constant).
  std::uint32_t nominal_request_size = 4;

  // ---- verification knobs
  /// Probability of triggering a direct cross-check per valid ack (§5).
  double p_dcc = 1.0;
  /// Estimated per-message loss used for compensation (§7.3 uses the
  /// 4% average observed on PlanetLab).
  double loss_estimate = 0.04;
  /// Calibrates the per-period compensation to the deployment's observed
  /// verification activity. Eq. 5 assumes the §6 steady state (every node
  /// exchanges |R| chunks with f servers AND f requesters per period);
  /// deployments below that density compensate proportionally less, just
  /// as the paper plugs the *observed* loss rate into the formulas (§7.3).
  /// 1.0 = the literal Eq. 5 value.
  double compensation_factor = 1.0;
  /// Direct-verification deadline after sending a request.
  Duration dv_timeout = milliseconds(500);
  /// Deadline for the receiver's ack after we served it (its next propose
  /// phase happens within Tg; add a latency allowance).
  Duration ack_timeout = milliseconds(900);
  /// Deadline for witness confirm responses.
  Duration confirm_timeout = milliseconds(300);

  // ---- adaptive cross-checking (§1: "this overhead can be dynamically
  // adjusted and potentially reduced to zero when the system is healthy")
  /// When enabled, each node decays its own p_dcc toward adaptive_min_pdcc
  /// while its verifications stay clean, and snaps back to the configured
  /// p_dcc the moment a verification blames someone.
  bool adaptive_pdcc = false;
  double adaptive_min_pdcc = 0.0;
  /// Multiplicative decay applied to the working p_dcc per clean period.
  double adaptive_decay = 0.85;
  /// A period is "clean" when the EWMA of blame value emitted per period
  /// stays below this multiple of the loss-noise floor (the node's share
  /// of Eq. 5's wrongful blames, ≈ compensation_factor·b̃). Message loss
  /// alone must not keep the cross-check rate pinned at maximum.
  double adaptive_noise_multiple = 1.5;

  // ---- reputation architecture (§5.1)
  std::uint32_t managers = 25;  ///< M managers per node
  double eta = -9.75;           ///< score-based expulsion threshold η
  /// Vote used to combine the managers' score replies. The paper uses the
  /// minimum ("to be resilient to message losses and malicious attacks,
  /// i.e. colluding managers increasing the scores"); the mean is provided
  /// for the ablation benchmark that demonstrates why.
  enum class ScoreVote : std::uint8_t { kMin, kMean };
  ScoreVote score_vote = ScoreVote::kMin;
  /// A manager agrees to an expulsion when its local copy is below
  /// η·(1-expel_slack) — slack absorbs blame messages it may have missed.
  double expel_slack = 0.2;
  /// Minimum score replies for a min-vote read to be actionable.
  std::uint32_t min_score_replies = 3;
  Duration score_reply_timeout = milliseconds(400);
  Duration expel_vote_timeout = milliseconds(400);
  /// Per-period probability that a node score-checks a recent contact.
  double score_check_probability = 0.0;
  /// Nodes younger than this many periods are never expelled on score
  /// (their normalized score has too few samples — §6.3.1: detection
  /// quality grows with r).
  std::uint32_t min_periods_before_detection = 10;

  // ---- local history auditing (§5.3)
  double gamma = 8.95;              ///< entropy threshold γ
  Duration history_window = seconds(25.0);  ///< h
  /// Per-period probability that a node audits a random peer.
  double audit_probability = 0.0;
  /// No audits before this many periods (histories must fill up first).
  std::uint32_t audit_warmup_periods = 50;
  Duration audit_poll_timeout = seconds(2.0);
  /// Fan-in entropy is only checked when at least this many asker samples
  /// were collected (with p_dcc = 0 nobody sends confirms and F'_h is
  /// legitimately empty).
  std::uint32_t min_fanin_samples = 50;
  /// Tolerated shortfall of the history proposal-rate check: blames are
  /// emitted when fewer than rate_tolerance·n_h proposals are on record.
  double rate_tolerance = 0.5;

  // ---- audit channel (§5.3 semantics, DESIGN.md §11)
  /// How the four audit kinds travel. kModeledTcp (the default, and the
  /// historical behavior) uses the simulator's lossless reliable channel
  /// priced with amortized TCP framing. kReliableUdp sends them as real
  /// datagrams priced with the exact codec length, made reliable in the
  /// application: bounded retries with exponential backoff + jitter,
  /// AuditAckMsg acknowledgments, duplicate suppression at the receiver.
  enum class AuditChannel : std::uint8_t { kModeledTcp, kReliableUdp };
  AuditChannel audit_channel = AuditChannel::kModeledTcp;
  /// Retransmissions after the initial send before giving up.
  std::uint32_t audit_max_retries = 4;
  /// Backoff before retry k is audit_retry_base · 2^k, stretched by up to
  /// audit_retry_jitter (uniform) to decorrelate loss-synchronized peers.
  Duration audit_retry_base = milliseconds(200);
  double audit_retry_jitter = 0.5;
  /// Receiver-side duplicate-suppression ring capacity (recently seen
  /// audit-message keys per node).
  std::uint32_t audit_dedup_cap = 128;
  /// Blame datagrams carry no sequence numbers (their wire size is
  /// pinned), so transport-level duplicates are suppressed heuristically:
  /// a manager drops a blame identical to one it applied from the same
  /// sender within this window. Zero (the default) disables the window —
  /// required for byte-identical goldens, since a legitimate identical
  /// re-blame inside the window is indistinguishable from a duplicate.
  Duration blame_dedup_window = Duration::zero();

  // ---- memory budget (DESIGN.md §9)
  /// Periods a confirm/history-poll answer may look back (§5.2: the
  /// verifier confirms against the witnesses' last few periods).
  static constexpr std::uint32_t kConfirmWindowPeriods = 3;
  /// How long the per-node accountability logs actually retain entries.
  /// zero (the default) means the full audit window `history_window` —
  /// required whenever audits run. A deployment that never audits
  /// (audit_probability 0) keeps no audit trail at all, so there this
  /// bounds only the received-proposal log; the million-node scale benches
  /// shrink it to the confirm window, so that log holds a few periods
  /// instead of n_h, with identical confirm answers. Must cover at least
  /// kConfirmWindowPeriods + 1 periods.
  Duration history_retention = Duration::zero();

  /// n_h = h / Tg (§5: the number of gossip periods covered by the history).
  [[nodiscard]] std::uint32_t history_periods() const {
    return static_cast<std::uint32_t>(history_window / period);
  }

  /// The log-retention span actually applied by Agent::tick's prune.
  [[nodiscard]] Duration effective_history_retention() const {
    return history_retention == Duration::zero() ? history_window
                                                 : history_retention;
  }

  /// The §6 model with these parameters (for compensation and bounds).
  [[nodiscard]] analysis::ProtocolModel model() const {
    return analysis::ProtocolModel{loss_estimate, fanout,
                                   nominal_request_size, p_dcc};
  }

  void validate() const {
    require(fanout >= 1, "fanout must be >= 1");
    require(period > Duration::zero(), "period must be positive");
    require(p_dcc >= 0.0 && p_dcc <= 1.0, "p_dcc must be in [0,1]");
    require(loss_estimate >= 0.0 && loss_estimate < 1.0,
            "loss estimate must be in [0,1)");
    require(compensation_factor >= 0.0, "compensation factor must be >= 0");
    require(adaptive_min_pdcc >= 0.0 && adaptive_min_pdcc <= p_dcc,
            "adaptive minimum must be within [0, p_dcc]");
    require(adaptive_decay > 0.0 && adaptive_decay < 1.0,
            "adaptive decay must be in (0,1)");
    require(managers >= 1, "need at least one manager");
    require(eta < 0.0, "eta must be negative");
    require(gamma >= 0.0, "gamma must be non-negative");
    require(history_window >= period, "history must span >= one period");
    require(history_window + period < StampBase::kReach,
            "history must fit a log stamp's reach (71.6 min)");
    require(history_retention == Duration::zero() ||
                (history_retention <= history_window &&
                 history_retention >= period * (kConfirmWindowPeriods + 1)),
            "history_retention must cover the confirm window and not "
            "exceed history_window");
    require(rate_tolerance >= 0.0 && rate_tolerance <= 1.0,
            "rate_tolerance in [0,1]");
    require(audit_retry_base > Duration::zero(),
            "audit_retry_base must be positive");
    require(audit_retry_jitter >= 0.0 && audit_retry_jitter <= 1.0,
            "audit_retry_jitter must be in [0,1]");
    require(audit_dedup_cap >= 1, "audit_dedup_cap must be >= 1");
    require(blame_dedup_window >= Duration::zero(),
            "blame_dedup_window must be non-negative");
  }
};

}  // namespace lifting

#endif  // LIFTING_LIFTING_PARAMS_HPP
