#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/codec.hpp"
#include "net/udp_transport.hpp"

namespace lifting::net {
namespace {

/// Raw loopback sender for crafting hostile datagrams the transport's own
/// send() would never emit.
class RawSender {
 public:
  RawSender() : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {}
  ~RawSender() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool send_to(std::uint16_t port, const void* data, std::size_t size) const {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::sendto(fd_, data, size, 0,
                    reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == static_cast<ssize_t>(size);
  }

 private:
  int fd_;
};

/// A well-formed frame for `msg` from sender 0: sender id u32 LE, codec
/// length u16 LE, codec bytes (mirrors UdpTransport's framing).
std::vector<std::uint8_t> make_frame(const gossip::Message& msg) {
  const auto codec = encode(msg);
  std::vector<std::uint8_t> frame{0, 0, 0, 0,
                                  static_cast<std::uint8_t>(codec.size()),
                                  static_cast<std::uint8_t>(codec.size() >> 8)};
  frame.insert(frame.end(), codec.begin(), codec.end());
  return frame;
}

std::size_t drain(UdpTransport& transport, std::size_t want) {
  std::size_t delivered = 0;
  for (int i = 0; i < 50 && delivered < want; ++i) {
    delivered += transport.poll_wait(milliseconds(20));
  }
  return delivered;
}

TEST(UdpTransport, LoopbackRoundTrip) {
  UdpTransport transport;
  std::vector<std::pair<NodeId, gossip::Message>> received;
  ASSERT_TRUE(transport.add_endpoint(NodeId{0}, nullptr));
  ASSERT_TRUE(transport.add_endpoint(
      NodeId{1}, [&](NodeId from, gossip::Message msg) {
        received.emplace_back(from, std::move(msg));
      }));

  gossip::ProposeMsg propose{3, {ChunkId{10}, ChunkId{11}}};
  ASSERT_TRUE(transport.send(NodeId{0}, NodeId{1}, gossip::Message{propose}));

  // Loopback delivery is near-instant; poll with a small wait budget.
  std::size_t delivered = 0;
  for (int i = 0; i < 50 && delivered == 0; ++i) {
    delivered += transport.poll_wait(milliseconds(20));
  }
  ASSERT_EQ(delivered, 1u);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, NodeId{0});
  const auto* msg = std::get_if<gossip::ProposeMsg>(&received[0].second);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->period, 3u);
  EXPECT_EQ(msg->chunks, propose.chunks);
}

// The wait has µs resolution: a sub-millisecond timeout blocks for its full
// length instead of truncating to a zero-ms poll that returns at once. Only
// the lower bound is asserted, so a slow (sanitized) run cannot fail it.
TEST(UdpTransport, SubMillisecondWaitBlocksForItsTimeout) {
  UdpTransport transport;
  ASSERT_TRUE(transport.add_endpoint(NodeId{0}, nullptr));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(transport.poll_wait(microseconds(400)), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, microseconds(400));
}

TEST(UdpTransport, ManyNodesExchangeVerificationTraffic) {
  UdpTransport transport;
  constexpr std::uint32_t kNodes = 8;
  std::vector<int> acks_seen(kNodes, 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(transport.add_endpoint(
        NodeId{i}, [&acks_seen, i](NodeId, gossip::Message msg) {
          if (std::holds_alternative<gossip::AckMsg>(msg)) ++acks_seen[i];
        }));
  }
  // Every node acks every other node once.
  for (std::uint32_t a = 0; a < kNodes; ++a) {
    for (std::uint32_t b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      gossip::AckMsg ack{1, {ChunkId{a}}, {NodeId{b}}};
      ASSERT_TRUE(transport.send(NodeId{a}, NodeId{b}, gossip::Message{ack}));
    }
  }
  std::size_t total = 0;
  for (int i = 0; i < 100 && total < kNodes * (kNodes - 1); ++i) {
    total += transport.poll_wait(milliseconds(20));
  }
  EXPECT_EQ(total, kNodes * (kNodes - 1));
  for (const auto seen : acks_seen) {
    EXPECT_EQ(seen, static_cast<int>(kNodes - 1));
  }
  EXPECT_EQ(transport.decode_failures(), 0u);
}

TEST(UdpTransport, RejectsUnknownEndpoints) {
  UdpTransport transport;
  ASSERT_TRUE(transport.add_endpoint(NodeId{0}, nullptr));
  EXPECT_FALSE(
      transport.send(NodeId{0}, NodeId{9}, gossip::Message{gossip::AckMsg{}}));
  EXPECT_FALSE(
      transport.send(NodeId{9}, NodeId{0}, gossip::Message{gossip::AckMsg{}}));
  EXPECT_FALSE(transport.add_endpoint(NodeId{0}, nullptr));  // duplicate
  EXPECT_EQ(transport.send_failures(), 2u);  // both failed sends counted
}

// Regression for the poll() drain bug: a runt (or zero-length) datagram
// used to terminate the drain loop for that socket, stranding every
// datagram queued behind it until the next poll — and runts were dropped
// without a trace. Now every malformed datagram is counted in
// decode_failures() and draining continues.
TEST(UdpTransport, CountsRuntsAndKeepsDraining) {
  UdpTransport transport;
  std::size_t received = 0;
  ASSERT_TRUE(transport.add_endpoint(
      NodeId{1}, [&](NodeId, gossip::Message) { ++received; }));
  const std::uint16_t port = transport.port_of(NodeId{1});
  ASSERT_NE(port, 0u);

  RawSender raw;
  const std::uint8_t runt[3] = {0xAB, 0xCD, 0xEF};
  ASSERT_TRUE(raw.send_to(port, runt, sizeof runt));    // < frame header
  ASSERT_TRUE(raw.send_to(port, nullptr, 0));           // zero-length
  // Valid frame header, garbage codec bytes.
  std::uint8_t bad_codec[9] = {0, 0, 0, 0, 3, 0, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(raw.send_to(port, bad_codec, sizeof bad_codec));
  // Codec length field larger than the datagram.
  std::uint8_t bad_len[8] = {0, 0, 0, 0, 0xFF, 0x00, 1, 2};
  ASSERT_TRUE(raw.send_to(port, bad_len, sizeof bad_len));
  // A valid message queued *behind* the malformed ones must still arrive
  // in the same drain.
  const auto good = make_frame(gossip::Message{gossip::AuditRequestMsg{7}});
  ASSERT_TRUE(raw.send_to(port, good.data(), good.size()));

  EXPECT_EQ(drain(transport, 1), 1u);
  EXPECT_EQ(received, 1u);
  EXPECT_EQ(transport.decode_failures(), 4u);
  EXPECT_EQ(transport.socket_errors(), 0u);
}

// Regression for the trailing-bytes hole: a serve frame whose datagram
// payload contradicts its payload_bytes field is malformed.
TEST(UdpTransport, RejectsServeWithShortPayloadBody) {
  UdpTransport transport;
  std::size_t received = 0;
  ASSERT_TRUE(transport.add_endpoint(
      NodeId{1}, [&](NodeId, gossip::Message) { ++received; }));
  RawSender raw;
  auto frame = make_frame(
      gossip::Message{gossip::ServeMsg{1, ChunkId{5}, 100, NodeId{2}}});
  frame.resize(frame.size() + 50);  // claims 100 payload bytes, carries 50
  ASSERT_TRUE(raw.send_to(transport.port_of(NodeId{1}), frame.data(),
                          frame.size()));
  // Non-serve frames must carry nothing after the codec bytes.
  auto trailing = make_frame(gossip::Message{gossip::AuditRequestMsg{7}});
  trailing.push_back(0);
  ASSERT_TRUE(raw.send_to(transport.port_of(NodeId{1}), trailing.data(),
                          trailing.size()));
  const auto good = make_frame(gossip::Message{gossip::AuditRequestMsg{8}});
  ASSERT_TRUE(raw.send_to(transport.port_of(NodeId{1}), good.data(),
                          good.size()));
  EXPECT_EQ(drain(transport, 1), 1u);
  EXPECT_EQ(received, 1u);
  EXPECT_EQ(transport.decode_failures(), 2u);
}

TEST(UdpTransport, RoutesReachRemoteTransports) {
  // Two transports in one process standing in for two daemon processes:
  // the sender knows the receiver only as a routed port.
  UdpTransport sender;
  UdpTransport receiver;
  ASSERT_TRUE(sender.add_endpoint(NodeId{0}, nullptr));
  std::vector<NodeId> from_ids;
  ASSERT_TRUE(receiver.add_endpoint(
      NodeId{5}, [&](NodeId from, gossip::Message) {
        from_ids.push_back(from);
      }));
  EXPECT_EQ(sender.port_of(NodeId{5}), 0u);  // not local
  ASSERT_TRUE(sender.add_route(NodeId{5}, receiver.port_of(NodeId{5})));
  EXPECT_FALSE(sender.add_route(NodeId{5}, 1));  // duplicate route

  ASSERT_TRUE(sender.send(NodeId{0}, NodeId{5},
                          gossip::Message{gossip::ScoreQueryMsg{NodeId{5}, 1}}));
  EXPECT_EQ(drain(receiver, 1), 1u);
  ASSERT_EQ(from_ids.size(), 1u);
  EXPECT_EQ(from_ids[0], NodeId{0});  // sender id carried in the frame
}

// The per-kind accounting behind the wire-vs-model report: a serve's
// datagram carries the frame header (6 B) and an explicit payload_bytes
// field (4 B) the analytical model folds into the payload, so its wire
// size must exceed gossip::wire_size by exactly 10 B; other UDP kinds by
// exactly the 6 B frame header.
TEST(UdpTransport, WireStatsMatchModelPlusFraming) {
  UdpTransport transport;
  std::uint32_t payload_seen = 0;
  ASSERT_TRUE(transport.add_endpoint(NodeId{0}, nullptr));
  ASSERT_TRUE(transport.add_endpoint(
      NodeId{1}, [&](NodeId, gossip::Message msg) {
        if (const auto* serve = std::get_if<gossip::ServeMsg>(&msg)) {
          payload_seen = serve->payload_bytes;
        }
      }));

  const gossip::ServeMsg serve{1, ChunkId{5}, 1000, NodeId{0}};
  ASSERT_TRUE(transport.send(NodeId{0}, NodeId{1}, gossip::Message{serve}));
  const gossip::AckMsg ack{1, {ChunkId{5}}, {NodeId{0}}};
  ASSERT_TRUE(transport.send(NodeId{0}, NodeId{1}, gossip::Message{ack}));
  EXPECT_EQ(drain(transport, 2), 2u);
  EXPECT_EQ(payload_seen, 1000u);  // zero-filled body priced and stripped

  const auto& stats = transport.wire_stats();
  const auto& serve_stats = stats[gossip::Message{serve}.index()];
  EXPECT_EQ(serve_stats.count, 1u);
  EXPECT_EQ(serve_stats.modeled_bytes, gossip::wire_size(serve));
  EXPECT_EQ(serve_stats.wire_bytes, serve_stats.modeled_bytes + 10);
  const auto& ack_stats = stats[gossip::Message{ack}.index()];
  EXPECT_EQ(ack_stats.count, 1u);
  EXPECT_EQ(ack_stats.modeled_bytes, gossip::wire_size(ack));
  EXPECT_EQ(ack_stats.wire_bytes,
            ack_stats.modeled_bytes + UdpTransport::kFrameHeaderBytes);
  EXPECT_EQ(transport.decode_failures(), 0u);
  EXPECT_EQ(transport.send_failures(), 0u);
}

}  // namespace
}  // namespace lifting::net
