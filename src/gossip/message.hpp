#ifndef LIFTING_GOSSIP_MESSAGE_HPP
#define LIFTING_GOSSIP_MESSAGE_HPP

#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "gossip/chunk.hpp"

/// Wire messages — the three-phase gossip protocol (§3) plus every LiFTinG
/// verification message (§5). One variant type covers the whole stack so a
/// node has a single network endpoint, as in the deployed system.
///
/// Sizes are modeled explicitly (wire_size) because Table 5 reports the
/// verification overhead as a fraction of stream bandwidth.

namespace lifting::gossip {

// ---------------------------------------------------------------- gossip

/// Propose phase: sender advertises the chunks received since its last
/// propose phase to f random partners.
struct ProposeMsg {
  PeriodIndex period = 0;  // sender's period counter
  ChunkIdList chunks;
};

/// Request phase: receiver asks for the subset it needs.
struct RequestMsg {
  PeriodIndex period = 0;  // echoes the proposal's period
  ChunkIdList chunks;
};

/// Serving phase: one chunk per message (chunks are large; one datagram
/// carries one chunk).
struct ServeMsg {
  PeriodIndex period = 0;       // echoes the proposal's period
  ChunkId chunk;
  std::uint32_t payload_bytes = 0;
  /// Whom the receiver should acknowledge to once it re-proposes the chunk.
  /// Honest nodes set this to themselves; a man-in-the-middle freerider
  /// (§5.2, Fig. 8b) points it at a colluder to reroute the verification.
  NodeId ack_to;
};

// ------------------------------------------------- direct cross-checking

/// Partner list of an ack: f is single-digit in every deployment, so the
/// list lives inline and an ack costs no heap allocation to build or copy.
using PartnerList = SmallVector<NodeId, 8>;

/// ack[i](partners): receiver tells the server that the served chunks were
/// proposed to `partners` during its propose phase `period` (§5.2).
struct AckMsg {
  PeriodIndex period = 0;  // receiver's propose-phase period
  ChunkIdList chunks;      // the served chunks that were re-proposed
  PartnerList partners;
};

/// confirm[i](subject): the verifier asks a witness whether `subject`
/// proposed (at least) `chunks` to it.
struct ConfirmReqMsg {
  NodeId subject;
  PeriodIndex subject_period = 0;
  ChunkIdList chunks;
};

/// Witness answer: yes/no.
struct ConfirmRespMsg {
  NodeId subject;
  PeriodIndex subject_period = 0;
  bool confirmed = false;
};

// -------------------------------------------------- blames / reputation

/// Classification of a blame (drives manager-side compensation).
enum class BlameReason : std::uint8_t {
  kDirectVerification,  // partial serve: f * (|R|-|S|)/|R|
  kInvalidAck,          // no/incomplete acknowledgment: f
  kFanoutDecrease,      // ack lists fewer than f partners: f - f_hat
  kTestimony,           // contradictory/missing witness testimony: 1 each
  kAposterioriCheck,    // unconfirmed history entries: 1 each
  kRateCheck,           // missing proposals in history
  /// Ledger-only attribution (never on the wire): the blame targeted a
  /// node that had already left or crashed — its verifiers mistook the
  /// silence for freeriding. The ground-truth BlameLedger reclassifies
  /// such emissions so churn-induced wrongful blame is separable from
  /// blame against live nodes.
  kPostDeparture,
};

/// Number of BlameReason alternatives (for dense per-reason tables).
inline constexpr std::size_t kBlameReasonCount =
    static_cast<std::size_t>(BlameReason::kPostDeparture) + 1;

/// Blame sent to each of the target's M managers.
struct BlameMsg {
  NodeId target;
  double value = 0.0;
  BlameReason reason = BlameReason::kDirectVerification;
};

/// Score read (min-vote over the M managers' replies).
struct ScoreQueryMsg {
  NodeId target;
  std::uint32_t query_id = 0;
};
struct ScoreReplyMsg {
  NodeId target;
  std::uint32_t query_id = 0;
  double normalized_score = 0.0;
  bool expelled = false;
};

/// Expulsion: an observer whose min-vote read fell below η asks the
/// managers to expel; managers vote against their local copies; the
/// observer commits on majority (see DESIGN.md — the paper leaves the
/// commit protocol unspecified).
struct ExpelRequestMsg {
  NodeId target;
  double observed_score = 0.0;
};
struct ExpelVoteMsg {
  NodeId target;
  bool agree = false;
};
struct ExpelCommitMsg {
  NodeId target;
  /// True when the expulsion comes from a failed entropy audit (§5.3),
  /// which expels directly rather than through the score path.
  bool from_audit = false;
};

// ----------------------------------------------------- local auditing (TCP)

/// One sent-proposal record in a node's local history.
struct HistoryProposalRecord {
  PeriodIndex period = 0;
  std::vector<NodeId> partners;
  ChunkIdList chunks;
};

/// Auditor asks the subject for its history of the last h seconds.
struct AuditRequestMsg {
  std::uint32_t audit_id = 0;
};
struct AuditHistoryMsg {
  std::uint32_t audit_id = 0;
  std::vector<HistoryProposalRecord> proposals;
};

/// Auditor polls an alleged receiver: (a) which of these claimed proposals
/// from `subject` did you actually receive, and (b) who asked you to
/// confirm proposals of `subject` (the F'_h trail)?
struct HistoryPollMsg {
  std::uint32_t audit_id = 0;
  NodeId subject;
  std::vector<HistoryProposalRecord> claims;  // claims whose partner == polled node
};
struct HistoryPollRespMsg {
  std::uint32_t audit_id = 0;
  NodeId subject;
  std::uint32_t confirmed = 0;  // claims actually received
  std::uint32_t denied = 0;     // claims never received
  std::vector<NodeId> confirm_askers;  // F'_h contributions (with multiplicity)
};

/// Application-level acknowledgment for the reliable-UDP audit channel
/// (LiftingParams::AuditChannel::kReliableUdp): the receiver of an audit
/// kind echoes the sender's retry key so the pending retransmission can be
/// cancelled. Never sent in the default modeled-TCP mode. The key is
/// derived from the audit message's own content — (kind, audit_id,
/// subject) — so no sequence numbers are added to existing messages and
/// their wire sizes stay untouched.
struct AuditAckMsg {
  std::uint8_t acked_kind = 0;  // Message variant index of the acked kind
  std::uint32_t audit_id = 0;
  NodeId subject;  // NodeId{0} for kinds without a subject field
};

// ------------------------------------------------ membership substrate

/// One partial-view entry as carried by an RPS shuffle exchange
/// (membership::RpsNetwork, DESIGN.md §12). `flags` bit 0 is the
/// ground-truth forged marker: set only by membership-layer attacks
/// (adversary/membership.hpp) on fabricated entries, never by honest
/// code — the modeled RAPTEE-style attested merge rejects flagged entries
/// the way a TEE-backed sampler would reject entries without a valid
/// attestation.
struct RpsViewEntry {
  NodeId id;
  std::uint32_t age = 0;
  std::uint32_t epoch = 1;
  std::uint8_t flags = 0;
};
inline constexpr std::uint8_t kRpsEntryForged = 0x01;

/// One RPS shuffle exchange (the initiator's offer or the contacted
/// node's response). The attested flag marks exchanges produced under the
/// hardened sampler's attestation option.
struct RpsShuffleMsg {
  std::uint32_t round = 0;
  std::uint8_t flags = 0;
  std::vector<RpsViewEntry> entries;
};
inline constexpr std::uint8_t kRpsShuffleAttested = 0x01;
inline constexpr std::uint8_t kRpsShuffleResponse = 0x02;

// ----------------------------------------------------------------- variant

using Message =
    std::variant<ProposeMsg, RequestMsg, ServeMsg, AckMsg, ConfirmReqMsg,
                 ConfirmRespMsg, BlameMsg, ScoreQueryMsg, ScoreReplyMsg,
                 ExpelRequestMsg, ExpelVoteMsg, ExpelCommitMsg,
                 AuditRequestMsg, AuditHistoryMsg, HistoryPollMsg,
                 HistoryPollRespMsg, AuditAckMsg, RpsShuffleMsg>;

/// The first kGossipKindCount Message alternatives are the kinds the
/// gossip engine handles (routing tests `index() < 4`); the asserts pin
/// the variant order that routing relies on.
inline constexpr std::size_t kGossipKindCount = 4;
static_assert(std::is_same_v<std::variant_alternative_t<0, Message>, ProposeMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<1, Message>, RequestMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<2, Message>, ServeMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<3, Message>, AckMsg>);

/// First variant index of the §5.3 audit kinds (audit_request,
/// audit_history, history_poll, history_poll_resp) — the contiguous block
/// the reliable-UDP audit channel reprices and retries. AuditAckMsg sits
/// after the block: it is channel machinery, not an audited RPC.
inline constexpr std::size_t kAuditKindFirst = 12;
inline constexpr std::size_t kAuditKindCount = 4;
static_assert(std::is_same_v<std::variant_alternative_t<12, Message>,
                             AuditRequestMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<15, Message>,
                             HistoryPollRespMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<16, Message>,
                             AuditAckMsg>);

/// The RPS shuffle sits after the audit block: substrate traffic, neither
/// a gossip kind (engine routing) nor an audited RPC (retry channel).
static_assert(std::is_same_v<std::variant_alternative_t<17, Message>,
                             RpsShuffleMsg>);

/// Variant index of alternative T: its slot in per-kind tables.
template <typename T, std::size_t I = 0>
[[nodiscard]] consteval std::size_t kind_index() {
  if constexpr (std::is_same_v<std::variant_alternative_t<I, Message>, T>) {
    return I;
  } else {
    return kind_index<T, I + 1>();
  }
}

/// What a message kind's traffic is for — the split behind Table 5:
/// the three-phase dissemination (propose, request, serve), LiFTinG
/// verification (ack through expel_commit, Table 5's numerator), the §5.3
/// audits with their channel acks, and the RPS membership substrate.
enum class KindClass : std::uint8_t {
  kDissemination,
  kVerification,
  kAudit,
  kSubstrate,
};

/// The class of the kind at variant `index` (the one classifier every
/// per-class sum uses).
[[nodiscard]] constexpr KindClass kind_class(std::size_t index) noexcept {
  if (index <= kind_index<ServeMsg>()) return KindClass::kDissemination;
  if (index <= kind_index<ExpelCommitMsg>()) return KindClass::kVerification;
  if (index <= kind_index<AuditAckMsg>()) return KindClass::kAudit;
  return KindClass::kSubstrate;
}

/// Modeled wire size in bytes, including a per-datagram IP+UDP header
/// (28 B) or amortized TCP framing (40 B). Field sizes: node id 4 B,
/// chunk id 8 B, period 4 B, count 2 B, score 8 B, flag/tag 1 B.
[[nodiscard]] std::size_t wire_size(const Message& msg);

/// Exact datagram size model: IP+UDP header (28 B) plus the precise
/// net::codec payload length of `msg` (plus any zero-filled serve payload).
/// Used to price the audit kinds when they travel as real datagrams
/// (reliable-UDP audit channel) instead of a modeled TCP stream — with it,
/// measured wire bytes exceed modeled bytes by exactly the 6 B/datagram
/// loopback frame header for every kind.
[[nodiscard]] std::size_t datagram_wire_size(const Message& msg);

/// Short name of the message alternative (metrics keys).
[[nodiscard]] const char* message_kind(const Message& msg);

/// Same names, addressed by variant index (per-kind stat tables that have
/// no Message instance at hand, e.g. UdpTransport::wire_stats). Returns
/// "unknown" for an out-of-range index.
[[nodiscard]] const char* message_kind_name(std::size_t index);

}  // namespace lifting::gossip

#endif  // LIFTING_GOSSIP_MESSAGE_HPP
