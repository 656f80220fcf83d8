#ifndef LIFTING_NET_TRANSPORT_HPP
#define LIFTING_NET_TRANSPORT_HPP

#include <cstddef>
#include <span>
#include <utility>

#include "common/types.hpp"
#include "gossip/message.hpp"
#include "sim/network.hpp"

/// The transport seam between the protocol stack and the world.
///
/// Engine and Agent send every message through gossip::Mailer; the Mailer
/// prices the message with the analytical wire_size model and hands it to a
/// Transport. Two implementations exist:
///
///   - SimTransport (here): delegates to sim::Network — the deterministic
///     discrete-event backend all experiments and goldens run on.
///   - UdpTransport (net/udp_transport.hpp): frames the message with the
///     net::codec byte format and sends a real UDP datagram — the
///     deployment backend behind the lifting_node daemon.
///
/// The interface deliberately mirrors sim::Network::send and send_many so
/// the simulator path is a single virtual call away from its historical
/// behavior: same arguments, same call order, bit-identical schedules (the
/// determinism goldens in tests/test_determinism.cpp pin this).

namespace lifting::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Submits `message` from `from` to `to`. `bytes` is the modeled wire
  /// size (gossip::wire_size) — the simulator charges it against uplink
  /// capacity; the UDP backend records it for model-vs-wire accounting.
  /// `channel` selects datagram vs reliable semantics where the backend
  /// distinguishes them (the simulator does; UDP sends a datagram either
  /// way and the size model prices the reliable kinds with TCP framing).
  virtual void send(NodeId from, NodeId to, sim::Channel channel,
                    std::size_t bytes, gossip::Message message) = 0;

  /// Submits one `message` to each of `to`, in list order — a fan-out
  /// such as a blame to all of a target's managers. Equivalent to a loop
  /// of send(), which is what the default does; the simulator overrides it
  /// to share one in-flight payload among the copies.
  virtual void send_many(NodeId from, std::span<const NodeId> to,
                         sim::Channel channel, std::size_t bytes,
                         const gossip::Message& message) {
    for (const NodeId dst : to) send(from, dst, channel, bytes, message);
  }
};

/// Simulator-backed transport: forwards verbatim to sim::Network.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(sim::Network<gossip::Message>& network)
      : network_(network) {}

  void send(NodeId from, NodeId to, sim::Channel channel, std::size_t bytes,
            gossip::Message message) override {
    network_.send(from, to, channel, bytes, std::move(message));
  }

  void send_many(NodeId from, std::span<const NodeId> to,
                 sim::Channel channel, std::size_t bytes,
                 const gossip::Message& message) override {
    network_.send_many(from, to, channel, bytes, message);
  }

  [[nodiscard]] sim::Network<gossip::Message>& network() noexcept {
    return network_;
  }

 private:
  sim::Network<gossip::Message>& network_;
};

}  // namespace lifting::net

#endif  // LIFTING_NET_TRANSPORT_HPP
