#include "faults/injector.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace lifting::faults {

namespace {
/// Stream base for per-sender fault generators; disjoint from the runtime
/// bases (0xA/0xB/0xC/0xD/0xE58, 0x9000000000+i) by construction.
constexpr std::uint64_t kFaultStreamBase = 0xF00000000ULL;
}  // namespace

FaultInjector::SenderState& FaultInjector::state_for(NodeId from) {
  const auto v = static_cast<std::size_t>(from.value());
  if (v >= senders_.size()) senders_.resize(v + 1);
  if (!senders_[v]) {
    senders_[v] = std::make_unique<SenderState>(
        SenderState{derive_rng(seed_, kFaultStreamBase + from.value()), false});
  }
  return *senders_[v];
}

void FaultInjector::send(NodeId from, NodeId to, sim::Channel channel,
                         std::size_t bytes, gossip::Message message) {
  // The modeled-TCP channel retransmits below this seam; only datagrams
  // are at the mercy of the plan. An empty plan is a pure pass-through —
  // no state, no draws.
  if (channel == sim::Channel::kReliable || plan_.empty()) {
    inner_.send(from, to, channel, bytes, std::move(message));
    return;
  }

  // Partition windows first: rng-free, so a fully partitioned pair costs
  // no draws and healing restores the exact per-sender stream position.
  const Duration now = sim_.now().time_since_epoch();
  for (const auto& w : plan_.partitions) {
    if (!w.active_at(now)) continue;
    const bool from_island = w.contains(from);
    const bool to_island = w.contains(to);
    if (from_island == to_island) continue;
    if ((from_island && w.drop_island_to_main) ||
        (!from_island && w.drop_main_to_island)) {
      ++stats_.dropped_partition;
      if (trace_ != nullptr) {
        trace_->record(obs::EventKind::kFaultDrop, from, to, 0, 0.0, 2,
                       static_cast<std::uint16_t>(message.index()));
      }
      return;
    }
  }

  SenderState& st = state_for(from);

  // Gilbert–Elliott: advance the chain one step, then apply the current
  // state's loss rate. Draw order is fixed (transition, then loss);
  // Pcg32::bernoulli consumes nothing for p <= 0, so disabled dimensions
  // stay draw-free.
  if (st.bad) {
    if (st.rng.bernoulli(plan_.p_bad_to_good)) st.bad = false;
  } else {
    if (st.rng.bernoulli(plan_.p_good_to_bad)) st.bad = true;
  }
  if (st.rng.bernoulli(st.bad ? plan_.loss_bad : plan_.loss_good)) {
    ++stats_.dropped_burst;
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kFaultDrop, from, to, 0, 0.0, 1,
                     static_cast<std::uint16_t>(message.index()));
    }
    return;
  }

  // Duplication: an extra copy is submitted immediately; the original
  // continues through the delay pipeline below.
  if (st.rng.bernoulli(plan_.duplicate_probability)) {
    ++stats_.duplicated;
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kFaultDuplicate, from, to, 0, 0.0, 0,
                     static_cast<std::uint16_t>(message.index()));
    }
    inner_.send(from, to, channel, bytes, message);
  }

  // Delay spike, else reorder hold (a held datagram is overtaken by later
  // sends — real reordering, not a shuffle).
  Duration extra = Duration::zero();
  if (st.rng.bernoulli(plan_.delay_spike_probability)) {
    const auto range = plan_.delay_spike_max - plan_.delay_spike_min;
    extra = plan_.delay_spike_min +
            Duration{static_cast<Duration::rep>(
                st.rng.uniform() * static_cast<double>(range.count()))};
    ++stats_.delayed;
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kFaultDelay, from, to,
                     static_cast<std::uint64_t>(extra.count()), 0.0, 0,
                     static_cast<std::uint16_t>(message.index()));
    }
  } else if (st.rng.bernoulli(plan_.reorder_probability)) {
    extra = plan_.reorder_delay;
    ++stats_.reordered;
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kFaultReorder, from, to,
                     static_cast<std::uint64_t>(extra.count()), 0.0, 0,
                     static_cast<std::uint16_t>(message.index()));
    }
  }

  if (extra > Duration::zero()) {
    sim_.schedule_after(extra, [this, from, to, channel, bytes,
                                m = std::move(message)]() mutable {
      inner_.send(from, to, channel, bytes, std::move(m));
    });
    return;
  }
  inner_.send(from, to, channel, bytes, std::move(message));
}

void FaultInjector::send_many(NodeId from, std::span<const NodeId> to,
                              sim::Channel channel, std::size_t bytes,
                              const gossip::Message& message) {
  if (channel == sim::Channel::kReliable || plan_.empty()) {
    inner_.send_many(from, to, channel, bytes, message);
    return;
  }
  Transport::send_many(from, to, channel, bytes, message);
}

}  // namespace lifting::faults
