#ifndef LIFTING_GOSSIP_MAILER_HPP
#define LIFTING_GOSSIP_MAILER_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>

#include "gossip/message.hpp"
#include "net/transport.hpp"
#include "sim/network.hpp"

/// Sends protocol messages through a net::Transport while keeping per-kind
/// message/byte accounting — the raw data behind Table 5 (verification
/// overhead as a fraction of stream bandwidth) and Table 3 (verification
/// message counts).
///
/// The Mailer is the single choke point between the protocol stack and the
/// backend: every Engine/Agent send passes through it, so swapping the
/// transport (simulator vs real UDP sockets) never touches protocol code.
///
/// The tally is one {count, bytes} slot per Message variant index, so
/// accounting a send is two adds with no lookup on the per-message path.

namespace lifting::gossip {

/// Messages sent of one kind and their modeled bytes.
struct KindTally {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// One KindTally per Message variant index (see kind_index, kind_class).
using SendTally = std::array<KindTally, std::variant_size_v<Message>>;

class Mailer {
 public:
  /// Simulator convenience: wraps `network` in an owned SimTransport.
  explicit Mailer(sim::Network<Message>& network)
      : sim_backend_(std::in_place, network), transport_(*sim_backend_) {}

  /// Backend-agnostic form: sends through `transport` (which must outlive
  /// the Mailer). Used by the wire deployment (NodeHost over UdpTransport).
  explicit Mailer(net::Transport& transport) : transport_(transport) {}

  /// Prices the §5.3 audit kinds (and their channel acks) with the exact
  /// datagram model instead of amortized TCP framing — set by the runtime
  /// when LiftingParams::audit_channel is kReliableUdp, where those kinds
  /// travel as real datagrams. Off (the default) keeps the historical
  /// byte-identical accounting.
  void set_datagram_audit_pricing(bool on) noexcept {
    datagram_audit_pricing_ = on;
  }

  void send(NodeId from, NodeId to, sim::Channel channel, Message message) {
    const std::size_t bytes = price(message);
    count(message, 1, bytes);
    transport_.send(from, to, channel, bytes, std::move(message));
  }

  /// Sends one `message` to each of `to` (in order), accounted as that
  /// many single sends. An empty list sends and counts nothing.
  void send_many(NodeId from, std::span<const NodeId> to,
                 sim::Channel channel, const Message& message) {
    if (to.empty()) return;
    const std::size_t bytes = price(message);
    count(message, to.size(), bytes);
    transport_.send_many(from, to, channel, bytes, message);
  }

  [[nodiscard]] net::Transport& transport() noexcept { return transport_; }
  /// Everything sent so far, by kind.
  [[nodiscard]] const SendTally& sent() const noexcept { return sent_; }
  void clear_sent() noexcept { sent_ = {}; }

 private:
  [[nodiscard]] std::size_t price(const Message& message) const {
    return datagram_audit_pricing_ &&
                   kind_class(message.index()) == KindClass::kAudit
               ? datagram_wire_size(message)
               : wire_size(message);
  }

  void count(const Message& message, std::size_t sends, std::size_t bytes) {
    auto& kind = sent_[message.index()];
    kind.count += sends;
    kind.bytes += sends * bytes;
  }

  // Declared before transport_ so the simulator constructor can bind the
  // reference to the engaged optional.
  std::optional<net::SimTransport> sim_backend_;
  net::Transport& transport_;
  bool datagram_audit_pricing_ = false;
  SendTally sent_{};
};

}  // namespace lifting::gossip

#endif  // LIFTING_GOSSIP_MAILER_HPP
