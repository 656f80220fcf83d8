#ifndef LIFTING_SIM_NETWORK_HPP
#define LIFTING_SIM_NETWORK_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

/// Simulated network with the failure model of the paper's analysis (§6.2):
/// independent Bernoulli per-message loss on datagram ("UDP") traffic, no
/// loss on reliable ("TCP") traffic, plus a per-node uplink capacity that
/// serializes outgoing messages — the mechanism by which weak or overloaded
/// nodes fail to serve in time and accrue organic (wrongful) blames, exactly
/// as observed on PlanetLab (§7.3).
///
/// Built for scale: endpoints live in a dense vector indexed by the
/// contiguous NodeId values (no hashing on the per-message path), and
/// in-flight messages are pooled — a send acquires a free Delivery slot,
/// and the scheduled closure captures only {network, slot, destination},
/// so steady-state traffic performs no heap allocation per message. A
/// fan-out (send_many: one blame to all M managers) shares one
/// ref-counted slot among all its surviving copies.

namespace lifting::sim {

/// Transport class of a message. The dissemination protocol and the direct
/// verifications use datagrams; local-history audits use the reliable
/// channel (paper §5.3: audits are sporadic, bulky, and loss-sensitive).
enum class Channel : std::uint8_t { kDatagram, kReliable };

/// Per-node link characteristics.
struct LinkProfile {
  /// Per-direction loss probability on datagram messages. The effective
  /// per-message loss between a and b is 1-(1-loss_a)(1-loss_b).
  double loss = 0.0;
  /// One-way propagation delay contributed by this endpoint.
  Duration latency_base = milliseconds(25);
  /// Uniform extra delay in [0, jitter) contributed by this endpoint.
  Duration latency_jitter = milliseconds(10);
  /// Uplink capacity in bits per second (serializes all sends).
  double upload_capacity_bps = 20e6;
  /// Datagrams are dropped when the uplink backlog exceeds this bound
  /// (models a full interface queue). Reliable traffic is never dropped,
  /// only delayed.
  Duration max_queue_delay = seconds(2.0);
  /// Messages at or below this size bypass the uplink queue (they still pay
  /// transmission time, but do not wait behind bulk serves). Models the
  /// interleaving of small control packets with large data packets — without
  /// it a congested uplink delays 60-byte acks by seconds, which no real
  /// stack does.
  std::size_t priority_bytes = 512;
};

/// Aggregate traffic statistics (per network).
struct NetworkStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_lost = 0;      // lost in flight (Bernoulli)
  std::uint64_t datagrams_dropped = 0;   // dropped at the sender's queue
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t reliable_sent = 0;
  std::uint64_t reliable_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t no_route = 0;  // sends addressed to a torn-down endpoint
};

/// A delivered message.
template <typename Payload>
struct Delivery {
  NodeId from;
  NodeId to;
  Channel channel = Channel::kDatagram;
  std::size_t bytes = 0;
  TimePoint sent_at;
  Payload payload;
};

/// The network itself, generic over the payload type so the substrate stays
/// independent of the protocol stack above it.
template <typename Payload>
class Network {
 public:
  /// Receive handler. The delivery is owned by the network's pool and may
  /// be shared by every destination of one send_many, so handlers see it
  /// read-only and copy what they keep.
  using Handler = std::function<void(const Delivery<Payload>&)>;

  Network(Simulator& sim, Pcg32 rng) : sim_(sim), rng_(rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Pre-sizes the endpoint table for a known deployment: add_node grows
  /// it one id at a time, and each doubling move-constructs every
  /// registered handler — pure waste when the population is known up
  /// front. reset() keeps the capacity, so a reused network pays this
  /// once.
  void reserve_nodes(std::size_t n) { nodes_.reserve(n); }

  /// Registers a node with its link profile and receive handler.
  /// Re-registration after remove_node() is allowed (a rejoining id);
  /// registering a live endpoint twice is a bug.
  void add_node(NodeId id, LinkProfile profile, Handler handler) {
    const auto v = static_cast<std::size_t>(id.value());
    if (v >= nodes_.size()) nodes_.resize(v + 1);
    LIFTING_ASSERT(!nodes_[v].registered,
                   "node registered twice with the network");
    auto& ep = nodes_[v];
    ep.profile = profile;
    ep.handler = std::move(handler);
    ep.uplink_free = kSimEpoch;
    ep.attached = true;
    ep.registered = true;
  }

  /// Registers a handler written against a mutable `Delivery&`: it gets a
  /// private copy of each delivery, since the pooled one may be shared.
  template <typename F>
    requires(!std::is_invocable_v<F&, const Delivery<Payload>&> &&
             std::is_invocable_v<F&, Delivery<Payload>&>)
  void add_node(NodeId id, LinkProfile profile, F handler) {
    add_node(id, profile,
             Handler{[h = std::move(handler)](
                         const Delivery<Payload>& d) mutable {
               Delivery<Payload> own = d;
               h(own);
             }});
  }

  /// Replaces the receive handler (used when wiring layered components).
  void set_handler(NodeId id, Handler handler) {
    endpoint(id).handler = std::move(handler);
  }

  /// Replaces a node's link profile mid-run (timeline set_link events).
  void set_profile(NodeId id, LinkProfile profile) {
    endpoint(id).profile = profile;
  }

  /// Detaches a node: all traffic to/from it is discarded from now on.
  /// Used for hard churn in tests; expulsion in LiFTinG is a membership-level
  /// decision and does not detach the victim.
  void detach(NodeId id) { endpoint(id).attached = false; }
  [[nodiscard]] bool attached(NodeId id) const {
    return endpoint(id).attached;
  }

  /// Tears an endpoint down (node left or crashed): the registration is
  /// cleared, the handler is released, and every in-flight delivery to the
  /// id lands in the void — it still releases its pooled slot when the
  /// delivery event fires, so teardown never leaks pool slots. The id may
  /// be re-registered later via add_node().
  void remove_node(NodeId id) {
    Endpoint* ep = maybe_endpoint(id);
    if (ep == nullptr) return;
    ep->registered = false;
    ep->attached = false;
    ep->handler = nullptr;
    ep->uplink_free = kSimEpoch;
  }

  /// Pool slots currently held by in-flight deliveries (one per send, one
  /// per send_many with a surviving copy). Returns to zero once every
  /// scheduled delivery event has fired (leak check in tests).
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return slots_ - free_.size();
  }

  /// Rewinds the network for a fresh run: endpoints and statistics are
  /// cleared and the rng replaced, but the delivery pool keeps its slots
  /// (stale payloads are overwritten on reuse) — the steady-state in-flight
  /// population of the next run occupies already-grown storage instead of
  /// re-paying the pool's growth allocations (Experiment::reset). Slot
  /// indices are invisible to outcomes (delivery order is the event
  /// queue's (time, seq) order), so reuse order does not affect results.
  void reset(Pcg32 rng) {
    rng_ = rng;
    nodes_.clear();
    stats_ = NetworkStats{};
    free_.resize(slots_);
    for (std::uint32_t i = 0; i < slots_; ++i) free_[i] = i;
  }

  /// Sends `payload` of `bytes` from `from` to `to` on `channel`.
  /// Datagrams may be lost or dropped; reliable messages always arrive.
  void send(NodeId from, NodeId to, Channel channel, std::size_t bytes,
            Payload payload) {
    Endpoint* src = maybe_endpoint(from);
    if (src == nullptr) return;  // departed sender: nothing leaves the NIC
    const auto deliver_at = link(*src, from, to, channel, bytes);
    if (!deliver_at) return;
    const std::uint32_t slot = acquire(from, channel, bytes);
    slot_at(slot).delivery.payload = std::move(payload);
    schedule_delivery(slot, to, *deliver_at);
  }

  /// Sends one `payload` to each of `to`, in list order. Each destination
  /// passes the same link model as a send() to it — same stats, same
  /// uplink queueing, same loss and jitter draws in the same order, same
  /// event order — so the outcome equals a loop of send(). The surviving
  /// copies share one pool slot, freed by the last delivery.
  void send_many(NodeId from, std::span<const NodeId> to, Channel channel,
                 std::size_t bytes, const Payload& payload) {
    Endpoint* src = maybe_endpoint(from);
    if (src == nullptr) return;
    std::optional<std::uint32_t> slot;
    for (const NodeId dst : to) {
      const auto deliver_at = link(*src, from, dst, channel, bytes);
      if (!deliver_at) continue;
      if (!slot) {
        slot = acquire(from, channel, bytes);
        slot_at(*slot).delivery.payload = payload;
      }
      schedule_delivery(*slot, dst, *deliver_at);
    }
  }

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const LinkProfile& profile(NodeId id) const {
    return endpoint(id).profile;
  }

 private:
  struct Endpoint {
    LinkProfile profile;
    Handler handler;
    TimePoint uplink_free = kSimEpoch;
    bool attached = false;
    bool registered = false;
  };

  [[nodiscard]] Endpoint& endpoint(NodeId id) {
    const auto v = static_cast<std::size_t>(id.value());
    LIFTING_ASSERT(v < nodes_.size() && nodes_[v].registered,
                   "unknown node id");
    return nodes_[v];
  }
  [[nodiscard]] const Endpoint& endpoint(NodeId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    LIFTING_ASSERT(v < nodes_.size() && nodes_[v].registered,
                   "unknown node id");
    return nodes_[v];
  }
  /// Like endpoint(), but null for ids never registered or torn down.
  [[nodiscard]] Endpoint* maybe_endpoint(NodeId id) {
    const auto v = static_cast<std::size_t>(id.value());
    if (v >= nodes_.size() || !nodes_[v].registered) return nullptr;
    return &nodes_[v];
  }

  /// The link model of one message to one destination, shared by send
  /// and send_many: counts the send, then applies the sender's uplink
  /// queue, datagram loss and propagation delay. Returns the arrival time,
  /// or nothing when the message does not survive.
  [[nodiscard]] std::optional<TimePoint> link(Endpoint& src, NodeId from,
                                              NodeId to, Channel channel,
                                              std::size_t bytes) {
    LIFTING_ASSERT(from != to, "node sending to itself");
    const Endpoint* dst_ep = maybe_endpoint(to);
    stats_.bytes_sent += bytes;
    if (channel == Channel::kDatagram) {
      ++stats_.datagrams_sent;
    } else {
      ++stats_.reliable_sent;
    }
    if (!src.attached) return std::nullopt;
    if (dst_ep == nullptr) {
      // Stale destination (a departed manager/partner id held by a live
      // node): the packet vanishes on the wire.
      if (channel == Channel::kDatagram) ++stats_.datagrams_lost;
      ++stats_.no_route;
      return std::nullopt;
    }
    const auto& dst = *dst_ep;

    // Uplink serialization: the message occupies the sender's uplink for
    // bytes*8/capacity seconds, queued behind earlier sends. Small control
    // packets interleave (priority lane): they pay transmission time but do
    // not wait in the bulk queue.
    const auto tx_time = transmission_time(bytes, src.profile);
    TimePoint departure;
    if (bytes <= src.profile.priority_bytes) {
      departure = sim_.now() + tx_time;
    } else {
      const TimePoint start = std::max(sim_.now(), src.uplink_free);
      const Duration backlog = start - sim_.now();
      if (channel == Channel::kDatagram &&
          backlog > src.profile.max_queue_delay) {
        ++stats_.datagrams_dropped;
        return std::nullopt;  // interface queue full; silently dropped
      }
      src.uplink_free = start + tx_time;
      departure = src.uplink_free;
    }

    if (channel == Channel::kDatagram) {
      const double loss =
          1.0 - (1.0 - src.profile.loss) * (1.0 - dst.profile.loss);
      if (rng_.bernoulli(loss)) {
        ++stats_.datagrams_lost;
        return std::nullopt;
      }
    }

    Duration latency = propagation_delay(src.profile, dst.profile);
    if (channel == Channel::kReliable) {
      // Connection setup: one extra round trip of base propagation.
      latency += 2 * (src.profile.latency_base + dst.profile.latency_base);
    }
    return departure + latency;
  }

  /// One pooled in-flight message and the number of scheduled deliveries
  /// still pointing at it.
  struct Slot {
    Delivery<Payload> delivery;
    std::uint32_t refs = 0;
  };
  /// Slots live in fixed-size blocks that never move, so a handler may
  /// read its delivery in place while sends it makes grow the pool.
  static constexpr std::uint32_t kBlockShift = 8;
  static constexpr std::uint32_t kBlockSlots = 1U << kBlockShift;

  [[nodiscard]] Slot& slot_at(std::uint32_t slot) {
    return blocks_[slot >> kBlockShift][slot & (kBlockSlots - 1)];
  }

  /// Takes a free slot and stamps its header; the caller sets the payload.
  [[nodiscard]] std::uint32_t acquire(NodeId from, Channel channel,
                                      std::size_t bytes) {
    std::uint32_t slot;
    if (free_.empty()) {
      if ((slots_ & (kBlockSlots - 1)) == 0) {
        blocks_.push_back(std::make_unique<Slot[]>(kBlockSlots));
      }
      slot = slots_++;
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slot_at(slot);
    s.delivery.from = from;
    s.delivery.channel = channel;
    s.delivery.bytes = bytes;
    s.delivery.sent_at = sim_.now();
    s.refs = 0;
    return slot;
  }

  void schedule_delivery(std::uint32_t slot, NodeId to, TimePoint at) {
    // The closure captures {this, slot, to} (16 bytes), which
    // UniqueFunction stores inline — the whole delivery path allocates
    // nothing in steady state.
    ++slot_at(slot).refs;
    sim_.schedule_at(at, [this, slot, to] { deliver(slot, to); });
  }

  void deliver(std::uint32_t slot, NodeId to) {
    // The handler reads the delivery in place (blocks never move) and the
    // slot is released after it returns, so sends the handler makes cannot
    // take it over. Deliveries to torn-down endpoints still release their
    // reference, so teardown never leaks pool slots.
    Slot& s = slot_at(slot);
    Endpoint* dest = maybe_endpoint(to);
    if (dest != nullptr && dest->attached && dest->handler) {
      if (s.delivery.channel == Channel::kDatagram) {
        ++stats_.datagrams_delivered;
      } else {
        ++stats_.reliable_delivered;
      }
      stats_.bytes_delivered += s.delivery.bytes;
      s.delivery.to = to;
      dest->handler(s.delivery);
    }
    if (--s.refs == 0) free_.push_back(slot);
  }

  [[nodiscard]] static Duration transmission_time(std::size_t bytes,
                                                  const LinkProfile& p) {
    const double seconds_on_wire =
        static_cast<double>(bytes) * 8.0 / p.upload_capacity_bps;
    return Duration{static_cast<Duration::rep>(seconds_on_wire * 1e6)};
  }

  [[nodiscard]] Duration propagation_delay(const LinkProfile& a,
                                           const LinkProfile& b) {
    const Duration base = a.latency_base + b.latency_base;
    const auto jitter_span = (a.latency_jitter + b.latency_jitter).count();
    const auto jitter = jitter_span == 0
                            ? Duration::zero()
                            : Duration{static_cast<Duration::rep>(
                                  rng_.uniform() *
                                  static_cast<double>(jitter_span))};
    return base + jitter;
  }

  Simulator& sim_;
  Pcg32 rng_;
  std::vector<Endpoint> nodes_;  // dense, indexed by NodeId::value()
  std::vector<std::unique_ptr<Slot[]>> blocks_;  // in-flight message slots
  std::uint32_t slots_ = 0;                      // slots ever created
  std::vector<std::uint32_t> free_;              // recycled pool slots
  NetworkStats stats_;
};

}  // namespace lifting::sim

#endif  // LIFTING_SIM_NETWORK_HPP
