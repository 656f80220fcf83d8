#ifndef LIFTING_NET_UDP_TRANSPORT_HPP
#define LIFTING_NET_UDP_TRANSPORT_HPP

#include <poll.h>

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "gossip/message.hpp"
#include "net/transport.hpp"

/// Real-socket datagram transport (loopback), the deployment-facing
/// counterpart of sim::Network. Every endpoint owns a non-blocking UDP
/// socket; messages are framed with the net::codec wire format (see
/// codec.hpp for the frame layout: sender id + codec length + codec bytes
/// + serve payload, all little-endian). `poll()` drains all sockets and
/// dispatches to the registered handlers; `poll_wait()` first sleeps until a
/// socket is readable or a timeout passes — call either from your event loop.
///
/// A transport usually hosts one endpoint per process (the lifting_node
/// daemon) with `add_route` naming the other nodes' ports, but it can hold
/// many endpoints in one process for loopback tests. It implements
/// net::Transport, so a gossip::Mailer can sit directly on top of it and
/// the Engine/Agent stack runs unmodified over real datagrams.
///
/// Accounting: every sent message is tallied per message kind with both its
/// actual on-wire size (frame bytes + 28 B IP/UDP headers per datagram) and
/// its analytical gossip::wire_size — the raw data behind the wire-vs-model
/// bandwidth report (Table 5 validation; see lifting_loopback).

namespace lifting::net {

class UdpTransport final : public Transport {
 public:
  using Handler = std::function<void(NodeId from, gossip::Message)>;

  /// Per-message-kind byte accounting, indexed by gossip::Message variant
  /// index (see wire_stats()).
  struct KindWireStats {
    std::uint64_t count = 0;
    std::uint64_t wire_bytes = 0;     ///< frame + 28 B IP/UDP per datagram
    std::uint64_t modeled_bytes = 0;  ///< gossip::wire_size sum
  };

  /// IP (20) + UDP (8) header bytes charged per datagram, matching the
  /// analytical model's per-message constant.
  static constexpr std::size_t kIpUdpHeaderBytes = 28;
  /// Frame header: sender id (4) + codec length (2), little-endian.
  static constexpr std::size_t kFrameHeaderBytes = 6;

  UdpTransport() = default;
  ~UdpTransport() override;
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Binds a loopback UDP socket for `id` on an ephemeral port and
  /// registers the receive handler. Returns false on socket errors.
  bool add_endpoint(NodeId id, Handler handler);

  /// Registers a remote peer reachable at `port` on loopback (another
  /// process's endpoint). Local endpoints take precedence on send.
  bool add_route(NodeId id, std::uint16_t port);

  /// The bound port of a local endpoint (0 if `id` is not local).
  [[nodiscard]] std::uint16_t port_of(NodeId id) const;

  /// Sends `msg` from local endpoint `from` to `to` (a local endpoint or a
  /// route). Serves carry a zero-filled payload body of payload_bytes.
  /// Returns false (and counts a send failure) if the destination is
  /// unknown or the datagram could not be sent.
  bool send(NodeId from, NodeId to, const gossip::Message& msg);

  /// net::Transport entry point (Mailer-facing). `bytes` is the modeled
  /// size as priced by the Mailer (TCP framing or exact-datagram for audit
  /// kinds) and is recorded verbatim in wire_stats; the channel collapses
  /// to a datagram.
  void send(NodeId from, NodeId to, sim::Channel channel, std::size_t bytes,
            gossip::Message message) override;

  /// Drains every socket, dispatching decoded messages. Returns the number
  /// of messages delivered.
  std::size_t poll();

  /// Blocks until a socket is readable, `timeout` has passed or a signal
  /// arrives, then drains if a socket is readable. The timeout has µs
  /// resolution and is never cut short (a zero or negative timeout does not
  /// block). Returns messages delivered.
  std::size_t poll_wait(Duration timeout);

  [[nodiscard]] std::size_t endpoints() const noexcept {
    return sockets_.size();
  }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
  /// Messages decoded and handed to an endpoint's handler.
  [[nodiscard]] std::uint64_t messages_received() const noexcept {
    return received_;
  }
  /// Frames that failed to decode: runts (shorter than the frame header —
  /// including zero-length datagrams), bad codec bytes, or a serve whose
  /// trailing payload length contradicts its payload_bytes field.
  [[nodiscard]] std::uint64_t decode_failures() const noexcept {
    return decode_failures_;
  }
  /// recv() failures other than "no data" (EAGAIN/EWOULDBLOCK/EINTR), e.g.
  /// ECONNREFUSED surfaced by an ICMP port-unreachable.
  [[nodiscard]] std::uint64_t socket_errors() const noexcept {
    return socket_errors_;
  }
  /// Sends that failed (unknown destination, oversized frame, sendto error).
  [[nodiscard]] std::uint64_t send_failures() const noexcept {
    return send_failures_;
  }
  [[nodiscard]] const std::array<KindWireStats,
                                 std::variant_size_v<gossip::Message>>&
  wire_stats() const noexcept {
    return wire_stats_;
  }

 private:
  struct Endpoint {
    int fd = -1;
    std::uint16_t port = 0;
    Handler handler;
  };

  /// Port of `to`: local endpoint first, then routes. 0 if unknown.
  [[nodiscard]] std::uint16_t destination_port(NodeId to) const;

  /// Shared sender: frames + sends, recording `modeled_bytes` against the
  /// message kind (the bool overload derives it with gossip::wire_size).
  bool send_with_modeled(NodeId from, NodeId to, const gossip::Message& msg,
                         std::size_t modeled_bytes);

  std::unordered_map<NodeId, Endpoint> sockets_;
  std::unordered_map<NodeId, std::uint16_t> routes_;
  /// One POLLIN entry per endpoint, filled by add_endpoint, so a wait
  /// allocates nothing.
  std::vector<pollfd> pollfds_;
  std::vector<std::uint8_t> frame_scratch_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t socket_errors_ = 0;
  std::uint64_t send_failures_ = 0;
  std::array<KindWireStats, std::variant_size_v<gossip::Message>>
      wire_stats_{};
};

}  // namespace lifting::net

#endif  // LIFTING_NET_UDP_TRANSPORT_HPP
