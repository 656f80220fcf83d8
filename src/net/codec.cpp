#include "net/codec.hpp"

#include <bit>

namespace lifting::net {

namespace {

// ---- writer (explicit little-endian: byte-shift serialization, not
// memcpy, so the format is identical on big-endian hosts)

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : buf_(out) {}
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }
  void node(NodeId id) { u32(id.value()); }
  void chunk(ChunkId id) { u64(id.value()); }
  void chunks(const gossip::ChunkIdList& list) {
    u16(static_cast<std::uint16_t>(list.size()));
    for (const auto c : list) chunk(c);
  }
  template <typename NodeList>  // std::vector<NodeId> or gossip::PartnerList
  void nodes(const NodeList& list) {
    u16(static_cast<std::uint16_t>(list.size()));
    for (const auto n : list) node(n);
  }
 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t>& buf_;
};

// ---- reader (bounds-checked; ok() goes false on any overrun)

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool done() const noexcept { return ok_ && pos_ == size_; }
  /// Count×size pre-check for length-prefixed lists: a hostile count must
  /// fail before any reserve() can amplify it.
  [[nodiscard]] bool can_read(std::size_t bytes) const noexcept {
    return ok_ && bytes <= size_ - pos_;
  }

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(take<std::uint64_t>()); }
  NodeId node() { return NodeId{u32()}; }
  // Chunk ids travel as 8 bytes on the wire (the in-memory rep is 32-bit;
  // the wire format predates the shrink and the size model keeps pricing
  // them at 8 B). An id outside the in-memory range cannot name a real
  // chunk — truncating it would alias a valid one, so a corrupted or
  // hostile frame carrying such an id is rejected as malformed.
  ChunkId chunk() {
    const std::uint64_t v = u64();
    if (v > 0xFFFFFFFFULL) ok_ = false;
    return ChunkId{static_cast<ChunkId::rep_type>(v)};
  }
  gossip::ChunkIdList chunks() {
    const auto count = u16();
    gossip::ChunkIdList out;
    if (!ok_) return out;
    if (static_cast<std::size_t>(count) * 8 > size_ - pos_) {
      ok_ = false;
      return out;
    }
    out.reserve(count);
    for (std::uint16_t i = 0; i < count && ok_; ++i) out.push_back(chunk());
    return out;
  }
  template <typename NodeList = std::vector<NodeId>>
  NodeList nodes() {
    const auto count = u16();
    NodeList out;
    if (!ok_) return out;
    if (static_cast<std::size_t>(count) * 4 > size_ - pos_) {
      ok_ = false;
      return out;
    }
    out.reserve(count);
    for (std::uint16_t i = 0; i < count && ok_; ++i) out.push_back(node());
    return out;
  }

 private:
  template <typename T>
  T take() {
    if (!ok_ || size_ - pos_ < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

enum class Tag : std::uint8_t {
  kPropose = 1,
  kRequest,
  kServe,
  kAck,
  kConfirmReq,
  kConfirmResp,
  kBlame,
  kScoreQuery,
  kScoreReply,
  kExpelRequest,
  kExpelVote,
  kExpelCommit,
  kAuditRequest,
  kAuditHistory,
  kHistoryPoll,
  kHistoryPollResp,
  kAuditAck,
  kRpsShuffle,
};

void write_records(Writer& w,
                   const std::vector<gossip::HistoryProposalRecord>& recs) {
  w.u16(static_cast<std::uint16_t>(recs.size()));
  for (const auto& rec : recs) {
    w.u32(rec.period);
    w.nodes(rec.partners);
    w.chunks(rec.chunks);
  }
}

std::vector<gossip::HistoryProposalRecord> read_records(Reader& r) {
  const auto count = r.u16();
  std::vector<gossip::HistoryProposalRecord> out;
  for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
    gossip::HistoryProposalRecord rec;
    rec.period = r.u32();
    rec.partners = r.nodes();
    rec.chunks = r.chunks();
    out.push_back(std::move(rec));
  }
  return out;
}

struct EncodeVisitor {
  Writer& w;
  void operator()(const gossip::ProposeMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kPropose));
    w.u32(m.period);
    w.chunks(m.chunks);
  }
  void operator()(const gossip::RequestMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kRequest));
    w.u32(m.period);
    w.chunks(m.chunks);
  }
  void operator()(const gossip::ServeMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kServe));
    w.u32(m.period);
    w.chunk(m.chunk);
    w.u32(m.payload_bytes);
    w.node(m.ack_to);
  }
  void operator()(const gossip::AckMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kAck));
    w.u32(m.period);
    w.chunks(m.chunks);
    w.nodes(m.partners);
  }
  void operator()(const gossip::ConfirmReqMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kConfirmReq));
    w.node(m.subject);
    w.u32(m.subject_period);
    w.chunks(m.chunks);
  }
  void operator()(const gossip::ConfirmRespMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kConfirmResp));
    w.node(m.subject);
    w.u32(m.subject_period);
    w.u8(m.confirmed ? 1 : 0);
  }
  void operator()(const gossip::BlameMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kBlame));
    w.node(m.target);
    w.f64(m.value);
    w.u8(static_cast<std::uint8_t>(m.reason));
  }
  void operator()(const gossip::ScoreQueryMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kScoreQuery));
    w.node(m.target);
    w.u32(m.query_id);
  }
  void operator()(const gossip::ScoreReplyMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kScoreReply));
    w.node(m.target);
    w.u32(m.query_id);
    w.f64(m.normalized_score);
    w.u8(m.expelled ? 1 : 0);
  }
  void operator()(const gossip::ExpelRequestMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kExpelRequest));
    w.node(m.target);
    w.f64(m.observed_score);
  }
  void operator()(const gossip::ExpelVoteMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kExpelVote));
    w.node(m.target);
    w.u8(m.agree ? 1 : 0);
  }
  void operator()(const gossip::ExpelCommitMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kExpelCommit));
    w.node(m.target);
    w.u8(m.from_audit ? 1 : 0);
  }
  void operator()(const gossip::AuditRequestMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kAuditRequest));
    w.u32(m.audit_id);
  }
  void operator()(const gossip::AuditHistoryMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kAuditHistory));
    w.u32(m.audit_id);
    write_records(w, m.proposals);
  }
  void operator()(const gossip::HistoryPollMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kHistoryPoll));
    w.u32(m.audit_id);
    w.node(m.subject);
    write_records(w, m.claims);
  }
  void operator()(const gossip::HistoryPollRespMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kHistoryPollResp));
    w.u32(m.audit_id);
    w.node(m.subject);
    w.u32(m.confirmed);
    w.u32(m.denied);
    w.nodes(m.confirm_askers);
  }
  void operator()(const gossip::AuditAckMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kAuditAck));
    w.u8(m.acked_kind);
    w.u32(m.audit_id);
    w.node(m.subject);
  }
  void operator()(const gossip::RpsShuffleMsg& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::kRpsShuffle));
    w.u32(m.round);
    w.u8(m.flags);
    w.u16(static_cast<std::uint16_t>(m.entries.size()));
    for (const auto& e : m.entries) {
      w.node(e.id);
      w.u32(e.age);
      w.u32(e.epoch);
      w.u8(e.flags);
    }
  }
};

}  // namespace

void encode_into(const gossip::Message& msg, std::vector<std::uint8_t>& out) {
  Writer w(out);
  std::visit(EncodeVisitor{w}, msg);
}

std::vector<std::uint8_t> encode(const gossip::Message& msg) {
  std::vector<std::uint8_t> out;
  encode_into(msg, out);
  return out;
}

std::optional<gossip::Message> decode(const std::uint8_t* data,
                                      std::size_t size) {
  Reader r(data, size);
  const auto tag = r.u8();
  if (!r.ok()) return std::nullopt;
  gossip::Message msg;
  switch (static_cast<Tag>(tag)) {
    case Tag::kPropose: {
      gossip::ProposeMsg m;
      m.period = r.u32();
      m.chunks = r.chunks();
      msg = std::move(m);
      break;
    }
    case Tag::kRequest: {
      gossip::RequestMsg m;
      m.period = r.u32();
      m.chunks = r.chunks();
      msg = std::move(m);
      break;
    }
    case Tag::kServe: {
      gossip::ServeMsg m;
      m.period = r.u32();
      m.chunk = r.chunk();
      m.payload_bytes = r.u32();
      m.ack_to = r.node();
      msg = m;
      break;
    }
    case Tag::kAck: {
      gossip::AckMsg m;
      m.period = r.u32();
      m.chunks = r.chunks();
      m.partners = r.nodes<gossip::PartnerList>();
      msg = std::move(m);
      break;
    }
    case Tag::kConfirmReq: {
      gossip::ConfirmReqMsg m;
      m.subject = r.node();
      m.subject_period = r.u32();
      m.chunks = r.chunks();
      msg = std::move(m);
      break;
    }
    case Tag::kConfirmResp: {
      gossip::ConfirmRespMsg m;
      m.subject = r.node();
      m.subject_period = r.u32();
      m.confirmed = r.u8() != 0;
      msg = m;
      break;
    }
    case Tag::kBlame: {
      gossip::BlameMsg m;
      m.target = r.node();
      m.value = r.f64();
      m.reason = static_cast<gossip::BlameReason>(r.u8());
      msg = m;
      break;
    }
    case Tag::kScoreQuery: {
      gossip::ScoreQueryMsg m;
      m.target = r.node();
      m.query_id = r.u32();
      msg = m;
      break;
    }
    case Tag::kScoreReply: {
      gossip::ScoreReplyMsg m;
      m.target = r.node();
      m.query_id = r.u32();
      m.normalized_score = r.f64();
      m.expelled = r.u8() != 0;
      msg = m;
      break;
    }
    case Tag::kExpelRequest: {
      gossip::ExpelRequestMsg m;
      m.target = r.node();
      m.observed_score = r.f64();
      msg = m;
      break;
    }
    case Tag::kExpelVote: {
      gossip::ExpelVoteMsg m;
      m.target = r.node();
      m.agree = r.u8() != 0;
      msg = m;
      break;
    }
    case Tag::kExpelCommit: {
      gossip::ExpelCommitMsg m;
      m.target = r.node();
      m.from_audit = r.u8() != 0;
      msg = m;
      break;
    }
    case Tag::kAuditRequest: {
      gossip::AuditRequestMsg m;
      m.audit_id = r.u32();
      msg = m;
      break;
    }
    case Tag::kAuditHistory: {
      gossip::AuditHistoryMsg m;
      m.audit_id = r.u32();
      m.proposals = read_records(r);
      msg = std::move(m);
      break;
    }
    case Tag::kHistoryPoll: {
      gossip::HistoryPollMsg m;
      m.audit_id = r.u32();
      m.subject = r.node();
      m.claims = read_records(r);
      msg = std::move(m);
      break;
    }
    case Tag::kHistoryPollResp: {
      gossip::HistoryPollRespMsg m;
      m.audit_id = r.u32();
      m.subject = r.node();
      m.confirmed = r.u32();
      m.denied = r.u32();
      m.confirm_askers = r.nodes();
      msg = std::move(m);
      break;
    }
    case Tag::kAuditAck: {
      gossip::AuditAckMsg m;
      m.acked_kind = r.u8();
      m.audit_id = r.u32();
      m.subject = r.node();
      msg = m;
      break;
    }
    case Tag::kRpsShuffle: {
      gossip::RpsShuffleMsg m;
      m.round = r.u32();
      m.flags = r.u8();
      const auto count = r.u16();
      if (!r.ok() || !r.can_read(static_cast<std::size_t>(count) * 13)) {
        return std::nullopt;
      }
      m.entries.reserve(count);
      for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
        gossip::RpsViewEntry e;
        e.id = r.node();
        e.age = r.u32();
        e.epoch = r.u32();
        e.flags = r.u8();
        m.entries.push_back(e);
      }
      msg = std::move(m);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return msg;
}

}  // namespace lifting::net
