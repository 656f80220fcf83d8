#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "net/codec.hpp"

namespace lifting::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint16_t read_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    static_cast<std::uint16_t>(p[1]) << 8);
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Payload bytes the transport appends after the codec bytes (serve frames
/// carry the chunk body; everything else is header-only).
std::uint32_t trailing_payload_bytes(const gossip::Message& msg) {
  const auto* serve = std::get_if<gossip::ServeMsg>(&msg);
  return serve != nullptr ? serve->payload_bytes : 0;
}

}  // namespace

UdpTransport::~UdpTransport() {
  for (auto& [id, ep] : sockets_) {
    if (ep.fd >= 0) ::close(ep.fd);
  }
}

bool UdpTransport::add_endpoint(NodeId id, Handler handler) {
  if (sockets_.contains(id)) return false;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr = loopback_addr(0);  // ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      !set_nonblocking(fd)) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return false;
  }
  Endpoint ep;
  ep.fd = fd;
  ep.port = ntohs(addr.sin_port);
  ep.handler = std::move(handler);
  sockets_.emplace(id, std::move(ep));
  pollfds_.push_back(pollfd{fd, POLLIN, 0});
  return true;
}

bool UdpTransport::add_route(NodeId id, std::uint16_t port) {
  if (port == 0 || sockets_.contains(id) || routes_.contains(id)) return false;
  routes_[id] = port;
  return true;
}

std::uint16_t UdpTransport::port_of(NodeId id) const {
  const auto it = sockets_.find(id);
  return it != sockets_.end() ? it->second.port : 0;
}

std::uint16_t UdpTransport::destination_port(NodeId to) const {
  if (const auto it = sockets_.find(to); it != sockets_.end()) {
    return it->second.port;
  }
  if (const auto it = routes_.find(to); it != routes_.end()) {
    return it->second;
  }
  return 0;
}

bool UdpTransport::send(NodeId from, NodeId to, const gossip::Message& msg) {
  return send_with_modeled(from, to, msg, gossip::wire_size(msg));
}

bool UdpTransport::send_with_modeled(NodeId from, NodeId to,
                                     const gossip::Message& msg,
                                     std::size_t modeled_bytes) {
  const auto src = sockets_.find(from);
  const std::uint16_t port = destination_port(to);
  if (src == sockets_.end() || port == 0) {
    ++send_failures_;
    return false;
  }
  const std::uint32_t payload = trailing_payload_bytes(msg);
  auto& frame = frame_scratch_;
  frame.clear();
  const std::uint32_t sender = from.value();
  frame.push_back(static_cast<std::uint8_t>(sender));
  frame.push_back(static_cast<std::uint8_t>(sender >> 8));
  frame.push_back(static_cast<std::uint8_t>(sender >> 16));
  frame.push_back(static_cast<std::uint8_t>(sender >> 24));
  frame.resize(kFrameHeaderBytes);  // codec_len, patched once it is known
  encode_into(msg, frame);
  const std::size_t codec_len = frame.size() - kFrameHeaderBytes;
  if (codec_len > 0xFFFF) {  // codec_len is a u16
    ++send_failures_;
    return false;
  }
  frame[4] = static_cast<std::uint8_t>(codec_len);
  frame[5] = static_cast<std::uint8_t>(codec_len >> 8);
  // Chunk body: this repo disseminates metadata-only chunks, so the body is
  // a zero-filled placeholder of the real size — the datagram on the wire
  // is as long as a deployment's would be.
  frame.resize(frame.size() + payload, 0);

  sockaddr_in addr = loopback_addr(port);
  const auto n = ::sendto(src->second.fd, frame.data(), frame.size(), 0,
                          reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (n != static_cast<ssize_t>(frame.size())) {
    ++send_failures_;
    return false;
  }
  ++sent_;
  auto& kind = wire_stats_[msg.index()];
  ++kind.count;
  kind.wire_bytes += frame.size() + kIpUdpHeaderBytes;
  kind.modeled_bytes += modeled_bytes;
  return true;
}

void UdpTransport::send(NodeId from, NodeId to, sim::Channel /*channel*/,
                        std::size_t bytes, gossip::Message message) {
  // `bytes` is the Mailer's modeled price for this message — recorded
  // as-is so the wire-vs-model stats agree with the sender's accounting
  // (under reliable-UDP audit pricing the Mailer charges the exact
  // datagram model, not TCP framing). UDP has no reliable channel, so both
  // channels collapse to a datagram.
  send_with_modeled(from, to, message, bytes);
}

std::size_t UdpTransport::poll() {
  std::size_t delivered = 0;
  std::uint8_t buffer[65536];
  for (auto& [id, ep] : sockets_) {
    for (;;) {
      const auto n = ::recv(ep.fd, buffer, sizeof buffer, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        // A real socket error (e.g. ECONNREFUSED from an ICMP port-
        // unreachable). The failing recv consumed the error condition;
        // ECONNREFUSED leaves the queue intact, so keep draining. Anything
        // else could recur forever — count it and yield until next poll.
        ++socket_errors_;
        if (errno == ECONNREFUSED) continue;
        break;
      }
      // n == 0 is a valid zero-length datagram, not "socket drained" — it
      // falls through to the runt check below and draining continues.
      const auto size = static_cast<std::size_t>(n);
      if (size < kFrameHeaderBytes) {
        ++decode_failures_;
        continue;
      }
      const std::uint32_t sender = read_le32(buffer);
      const std::size_t codec_len = read_le16(buffer + 4);
      if (kFrameHeaderBytes + codec_len > size) {
        ++decode_failures_;
        continue;
      }
      auto decoded = decode(buffer + kFrameHeaderBytes, codec_len);
      if (!decoded.has_value()) {
        ++decode_failures_;
        continue;
      }
      const std::size_t trailing = size - kFrameHeaderBytes - codec_len;
      if (trailing != trailing_payload_bytes(*decoded)) {
        ++decode_failures_;
        continue;
      }
      if (ep.handler) {
        ep.handler(NodeId{sender}, std::move(*decoded));
        ++delivered;
        ++received_;
      }
    }
  }
  return delivered;
}

std::size_t UdpTransport::poll_wait(Duration timeout) {
  if (pollfds_.empty()) return 0;
  const auto us = std::max(timeout.count(), Duration::rep{0});
  const timespec ts{static_cast<std::time_t>(us / 1'000'000),
                    static_cast<long>(us % 1'000'000) * 1000};
  const int ready = ::ppoll(pollfds_.data(), pollfds_.size(), &ts, nullptr);
  if (ready <= 0) return 0;
  return poll();
}

}  // namespace lifting::net
