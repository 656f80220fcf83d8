#include <gtest/gtest.h>

#include <algorithm>

#include "net/codec.hpp"

namespace lifting::net {
namespace {

template <typename T>
T roundtrip(const T& msg) {
  const auto bytes = encode(gossip::Message{msg});
  const auto decoded = decode(bytes);
  EXPECT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*decoded));
  return std::get<T>(*decoded);
}

TEST(Codec, ProposeRoundTrip) {
  gossip::ProposeMsg m{42, {ChunkId{1}, ChunkId{99}, ChunkId{1u << 30}}};
  const auto out = roundtrip(m);
  EXPECT_EQ(out.period, m.period);
  EXPECT_EQ(out.chunks, m.chunks);
}

TEST(Codec, SpilledProposeRoundTrip) {
  // A planetlab-sized proposal (28 ids) spills past ChunkIdList's inline
  // capacity on both sides of the codec.
  gossip::ProposeMsg m{42, {}};
  for (std::uint32_t i = 0; i < 28; ++i) m.chunks.push_back(ChunkId{500 + 3 * i});
  ASSERT_GT(m.chunks.size(), gossip::ChunkIdList{}.capacity());
  const auto out = roundtrip(m);
  EXPECT_EQ(out.period, m.period);
  EXPECT_EQ(out.chunks, m.chunks);
}

TEST(Codec, RequestRoundTrip) {
  gossip::RequestMsg m{7, {ChunkId{3}}};
  const auto out = roundtrip(m);
  EXPECT_EQ(out.period, 7u);
  EXPECT_EQ(out.chunks, m.chunks);
}

TEST(Codec, ServeRoundTrip) {
  gossip::ServeMsg m{5, ChunkId{12}, 8425, NodeId{77}};
  const auto out = roundtrip(m);
  EXPECT_EQ(out.chunk, m.chunk);
  EXPECT_EQ(out.payload_bytes, 8425u);
  EXPECT_EQ(out.ack_to, NodeId{77});
}

TEST(Codec, AckRoundTrip) {
  gossip::AckMsg m{9, {ChunkId{1}, ChunkId{2}}, {NodeId{4}, NodeId{5}, NodeId{6}}};
  const auto out = roundtrip(m);
  EXPECT_EQ(out.period, 9u);
  EXPECT_EQ(out.chunks, m.chunks);
  EXPECT_EQ(out.partners, m.partners);
}

TEST(Codec, ConfirmRoundTrip) {
  gossip::ConfirmReqMsg req{NodeId{3}, 11, {ChunkId{8}}};
  const auto r = roundtrip(req);
  EXPECT_EQ(r.subject, NodeId{3});
  EXPECT_EQ(r.subject_period, 11u);
  gossip::ConfirmRespMsg resp{NodeId{3}, 11, true};
  const auto rr = roundtrip(resp);
  EXPECT_TRUE(rr.confirmed);
}

TEST(Codec, BlameRoundTripPreservesValueAndReason) {
  gossip::BlameMsg m{NodeId{8}, 3.5, gossip::BlameReason::kTestimony};
  const auto out = roundtrip(m);
  EXPECT_EQ(out.target, NodeId{8});
  EXPECT_DOUBLE_EQ(out.value, 3.5);
  EXPECT_EQ(out.reason, gossip::BlameReason::kTestimony);
}

TEST(Codec, ScoreMessagesRoundTrip) {
  const auto q = roundtrip(gossip::ScoreQueryMsg{NodeId{2}, 1234});
  EXPECT_EQ(q.query_id, 1234u);
  const auto r =
      roundtrip(gossip::ScoreReplyMsg{NodeId{2}, 1234, -9.7512, true});
  EXPECT_DOUBLE_EQ(r.normalized_score, -9.7512);
  EXPECT_TRUE(r.expelled);
}

TEST(Codec, ExpulsionMessagesRoundTrip) {
  EXPECT_DOUBLE_EQ(
      roundtrip(gossip::ExpelRequestMsg{NodeId{1}, -12.5}).observed_score,
      -12.5);
  EXPECT_TRUE(roundtrip(gossip::ExpelVoteMsg{NodeId{1}, true}).agree);
  EXPECT_TRUE(roundtrip(gossip::ExpelCommitMsg{NodeId{1}, true}).from_audit);
}

TEST(Codec, AuditMessagesRoundTrip) {
  gossip::AuditHistoryMsg hist;
  hist.audit_id = 5;
  hist.proposals.push_back(
      {3, {NodeId{1}, NodeId{2}}, {ChunkId{10}, ChunkId{11}}});
  hist.proposals.push_back({4, {NodeId{9}}, {}});
  const auto out = roundtrip(hist);
  ASSERT_EQ(out.proposals.size(), 2u);
  EXPECT_EQ(out.proposals[0].partners.size(), 2u);
  EXPECT_EQ(out.proposals[1].period, 4u);

  gossip::HistoryPollMsg poll{5, NodeId{7}, out.proposals};
  const auto p = roundtrip(poll);
  EXPECT_EQ(p.subject, NodeId{7});
  ASSERT_EQ(p.claims.size(), 2u);

  gossip::HistoryPollRespMsg resp{5, NodeId{7}, 10, 2, {NodeId{1}, NodeId{1}}};
  const auto pr = roundtrip(resp);
  EXPECT_EQ(pr.confirmed, 10u);
  EXPECT_EQ(pr.denied, 2u);
  EXPECT_EQ(pr.confirm_askers.size(), 2u);
}

TEST(Codec, RejectsTruncatedInput) {
  const auto bytes = encode(gossip::Message{
      gossip::ProposeMsg{1, {ChunkId{1}, ChunkId{2}}}});
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode(bytes.data(), cut).has_value())
        << "accepted truncation at " << cut;
  }
}

TEST(Codec, RejectsUnknownTagAndTrailingBytes) {
  const std::vector<std::uint8_t> junk{0xFF, 0x00, 0x01};
  EXPECT_FALSE(decode(junk).has_value());
  auto bytes = encode(gossip::Message{gossip::AuditRequestMsg{3}});
  bytes.push_back(0x00);  // trailing garbage
  EXPECT_FALSE(decode(bytes).has_value());
  EXPECT_FALSE(decode(nullptr, 0).has_value());
}

TEST(Codec, RejectsOversizedCountFields) {
  // Claim 65535 chunks but provide none: must fail cleanly, not crash.
  std::vector<std::uint8_t> crafted{1 /*propose*/, 0, 0, 0, 0, 0xFF, 0xFF};
  EXPECT_FALSE(decode(crafted).has_value());
}

// Chunk ids travel as 8 wire bytes but the in-memory rep is 32-bit. A
// frame carrying an id >= 2^32 used to truncate silently into an alias of
// a real chunk; it must be rejected as malformed instead.
TEST(Codec, RejectsOutOfRangeChunkId) {
  // propose: tag, period u32, count u16, then one chunk id u64 (LE).
  const auto propose_with_id = [](std::uint64_t id) {
    std::vector<std::uint8_t> bytes{1 /*propose*/, 0, 0, 0, 0, 1, 0};
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(id >> (8 * i)));
    }
    return bytes;
  };
  EXPECT_TRUE(decode(propose_with_id(0xFFFFFFFFULL)).has_value());
  EXPECT_FALSE(decode(propose_with_id(0x100000000ULL)).has_value());
  EXPECT_FALSE(decode(propose_with_id(0x1FFFFFFFFULL)).has_value());
  EXPECT_FALSE(decode(propose_with_id(~0ULL)).has_value());

  // serve: tag, period u32, chunk u64, payload u32, ack_to u32.
  std::vector<std::uint8_t> serve{3 /*serve*/, 0, 0, 0, 0};
  for (int i = 0; i < 8; ++i) serve.push_back(i == 4 ? 1 : 0);  // id = 2^32
  for (int i = 0; i < 8; ++i) serve.push_back(0);  // payload + ack_to
  EXPECT_FALSE(decode(serve).has_value());
}

/// One representative, fully-populated sample of every message type, in
/// variant order.
std::vector<gossip::Message> sample_messages() {
  gossip::AuditHistoryMsg hist;
  hist.audit_id = 9;
  hist.proposals.push_back(
      {3, {NodeId{1}, NodeId{2}}, {ChunkId{10}, ChunkId{11}}});
  hist.proposals.push_back({4, {NodeId{9}}, {ChunkId{12}}});
  return {
      gossip::ProposeMsg{1, {ChunkId{5}, ChunkId{6}}},
      gossip::RequestMsg{1, {ChunkId{5}}},
      gossip::ServeMsg{1, ChunkId{5}, 1024, NodeId{3}},
      gossip::AckMsg{2, {ChunkId{5}}, {NodeId{1}, NodeId{2}}},
      gossip::ConfirmReqMsg{NodeId{4}, 2, {ChunkId{7}}},
      gossip::ConfirmRespMsg{NodeId{4}, 2, true},
      gossip::BlameMsg{NodeId{6}, 1.25, gossip::BlameReason::kTestimony},
      gossip::ScoreQueryMsg{NodeId{2}, 77},
      gossip::ScoreReplyMsg{NodeId{2}, 77, -3.5, false},
      gossip::ExpelRequestMsg{NodeId{8}, -20.0},
      gossip::ExpelVoteMsg{NodeId{8}, true},
      gossip::ExpelCommitMsg{NodeId{8}, false},
      gossip::AuditRequestMsg{9},
      hist,
      gossip::HistoryPollMsg{9, NodeId{7}, hist.proposals},
      gossip::HistoryPollRespMsg{9, NodeId{7}, 3, 1, {NodeId{1}}},
      gossip::AuditAckMsg{13, 9, NodeId{7}},
      gossip::RpsShuffleMsg{
          4,
          static_cast<std::uint8_t>(gossip::kRpsShuffleAttested |
                                    gossip::kRpsShuffleResponse),
          {gossip::RpsViewEntry{NodeId{5}, 3, 1, 0},
           gossip::RpsViewEntry{NodeId{11}, 0, 2, gossip::kRpsEntryForged}}},
  };
}

TEST(Codec, RpsShuffleRoundTrip) {
  gossip::RpsShuffleMsg m;
  m.round = 120;
  m.flags = gossip::kRpsShuffleAttested;
  m.entries.push_back(gossip::RpsViewEntry{NodeId{1}, 7, 1, 0});
  m.entries.push_back(
      gossip::RpsViewEntry{NodeId{42}, 0, 3, gossip::kRpsEntryForged});
  const auto out = roundtrip(m);
  EXPECT_EQ(out.round, 120u);
  EXPECT_EQ(out.flags, gossip::kRpsShuffleAttested);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].id, NodeId{1});
  EXPECT_EQ(out.entries[0].age, 7u);
  EXPECT_EQ(out.entries[0].epoch, 1u);
  EXPECT_EQ(out.entries[0].flags, 0u);
  EXPECT_EQ(out.entries[1].id, NodeId{42});
  EXPECT_EQ(out.entries[1].epoch, 3u);
  EXPECT_EQ(out.entries[1].flags, gossip::kRpsEntryForged);

  // An empty exchange (a node with a drained view) is legal on the wire.
  gossip::RpsShuffleMsg empty;
  EXPECT_TRUE(roundtrip(empty).entries.empty());

  // Claimed entry count without the bytes must fail cleanly (the count ×
  // entry-size pre-check), like every other list-carrying kind.
  std::vector<std::uint8_t> crafted{18 /*rps_shuffle tag*/, 0, 0, 0, 0,
                                    0 /*flags*/, 0xFF, 0xFF};
  EXPECT_FALSE(decode(crafted).has_value());
}

// Robustness sweep: every message type under systematic truncation. A
// strict prefix can never satisfy the parser (every read is bounds-checked
// and decode() demands full consumption), so all of these must fail
// cleanly — no crash, no overrun (the suite also runs under ASan in CI).
TEST(Codec, EveryKindRejectsAllTruncations) {
  const auto samples = sample_messages();
  ASSERT_EQ(samples.size(), std::variant_size_v<gossip::Message>);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const auto bytes = encode(samples[k]);
    EXPECT_EQ(decode(bytes)->index(), k);  // the sample itself round-trips
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(decode(bytes.data(), cut).has_value())
          << "kind " << k << " accepted a " << cut << "-byte prefix";
    }
  }
}

// encode() is a thin wrapper over encode_into(): appending to a buffer that
// already holds bytes (a frame header, in the transport) leaves them intact
// and adds exactly the bytes encode() returns, for every kind.
TEST(Codec, EncodeIntoAppendsExactlyEncode) {
  const auto samples = sample_messages();
  ASSERT_EQ(samples.size(), std::variant_size_v<gossip::Message>);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const std::vector<std::uint8_t> prefix{0xAB, 0xCD, 0xEF};
    auto out = prefix;
    encode_into(samples[k], out);
    const auto expected = encode(samples[k]);
    ASSERT_EQ(out.size(), prefix.size() + expected.size()) << "kind " << k;
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()))
        << "kind " << k;
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           out.begin() + static_cast<std::ptrdiff_t>(
                                             prefix.size())))
        << "kind " << k;
  }
}

// Robustness sweep: every message type under single-byte mutation at every
// position. A mutated frame may still decode (e.g. a flipped period bit is
// indistinguishable from a different valid message) — the requirement is
// that the decoder never crashes or reads out of bounds, whatever comes
// back.
TEST(Codec, EveryKindSurvivesSingleByteMutation) {
  std::size_t still_decodable = 0;
  for (const auto& sample : sample_messages()) {
    const auto bytes = encode(sample);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
        auto mutated = bytes;
        mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ flip);
        // Heap-copy at the exact size so ASan catches any overrun.
        const std::vector<std::uint8_t> exact(mutated.begin(), mutated.end());
        if (decode(exact.data(), exact.size()).has_value()) ++still_decodable;
      }
    }
  }
  // Sanity: the sweep ran over real data (some mutations survive, e.g. in
  // period or payload fields; a tag flip or count inflation must not).
  EXPECT_GT(still_decodable, 0u);
}

}  // namespace
}  // namespace lifting::net
