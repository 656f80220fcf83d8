#ifndef LIFTING_GOSSIP_MAILER_HPP
#define LIFTING_GOSSIP_MAILER_HPP

#include <array>
#include <optional>
#include <span>
#include <string>
#include <variant>

#include "gossip/message.hpp"
#include "net/transport.hpp"
#include "sim/metrics.hpp"
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
/// Counter handles are resolved once per message kind (on its first send,
/// preserving the registry's historical registration order) and cached by
/// variant index, so steady-state accounting is two pointer bumps with no
/// string building on the per-message path.

namespace lifting::gossip {

class Mailer {
 public:
  /// Simulator convenience: wraps `network` in an owned SimTransport.
  /// `metrics` may be null (no accounting, e.g. in micro-tests).
  Mailer(sim::Network<Message>& network, sim::MetricsRegistry* metrics)
      : sim_backend_(std::in_place, network),
        transport_(*sim_backend_),
        metrics_(metrics) {}

  /// Backend-agnostic form: sends through `transport` (which must outlive
  /// the Mailer). Used by the wire deployment (NodeHost over UdpTransport).
  Mailer(net::Transport& transport, sim::MetricsRegistry* metrics)
      : transport_(transport), metrics_(metrics) {}

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
  /// many single sends. An empty list sends and registers nothing.
  void send_many(NodeId from, std::span<const NodeId> to,
                 sim::Channel channel, const Message& message) {
    if (to.empty()) return;
    const std::size_t bytes = price(message);
    count(message, to.size(), bytes);
    transport_.send_many(from, to, channel, bytes, message);
  }

  [[nodiscard]] net::Transport& transport() noexcept { return transport_; }
  [[nodiscard]] sim::MetricsRegistry* metrics() noexcept { return metrics_; }

 private:
  struct KindCounters {
    sim::Counter* count = nullptr;
    sim::Counter* bytes = nullptr;
  };

  [[nodiscard]] std::size_t price(const Message& message) const {
    const bool audit_kind = message.index() >= kAuditKindFirst;
    return datagram_audit_pricing_ && audit_kind ? datagram_wire_size(message)
                                                 : wire_size(message);
  }

  void count(const Message& message, std::size_t sends, std::size_t bytes) {
    if (metrics_ == nullptr) return;
    auto& kind_counters = counters_[message.index()];
    if (kind_counters.count == nullptr) {
      const std::string kind = message_kind(message);
      kind_counters.count = &metrics_->counter("sent." + kind + ".count");
      kind_counters.bytes = &metrics_->counter("sent." + kind + ".bytes");
    }
    kind_counters.count->add(sends);
    kind_counters.bytes->add(sends * bytes);
  }

  // Declared before transport_ so the simulator constructor can bind the
  // reference to the engaged optional.
  std::optional<net::SimTransport> sim_backend_;
  net::Transport& transport_;
  sim::MetricsRegistry* metrics_;
  bool datagram_audit_pricing_ = false;
  std::array<KindCounters, std::variant_size_v<Message>> counters_{};
};

/// Message kinds that constitute the three-phase dissemination itself.
[[nodiscard]] inline bool is_dissemination_kind(const std::string& kind) {
  return kind == "propose" || kind == "request" || kind == "serve";
}

}  // namespace lifting::gossip

#endif  // LIFTING_GOSSIP_MAILER_HPP
