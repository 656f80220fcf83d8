#ifndef LIFTING_FAULTS_INJECTOR_HPP
#define LIFTING_FAULTS_INJECTOR_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "faults/plan.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

/// Deterministic fault injection at the transport seam (DESIGN.md §11).
///
/// FaultInjector wraps any net::Transport — the simulator backend inside
/// runtime::Experiment, the UDP backend inside runtime::NodeHost — and
/// applies a FaultPlan to every datagram-channel send. The reliable
/// channel (sim::Channel::kReliable, the modeled-TCP audit stream) passes
/// through untouched: TCP retransmits below our abstraction, so faults on
/// it would model the wrong layer. The reliable-UDP audit mode sends real
/// datagrams and therefore does contend with faults — which is the point.
///
/// Determinism: all randomness comes from per-sender Pcg32 streams derived
/// as derive_rng(seed, 0xF00000000 + sender) — disjoint from every other
/// stream base the runtime uses and independent of thread count or the
/// interleaving of other senders. Partition windows are rng-free time/id
/// arithmetic. An empty plan constructs no generator and draws nothing, so
/// fixed-seed goldens are byte-identical with the injector in place.

namespace lifting::obs {
class Recorder;
}  // namespace lifting::obs

namespace lifting::faults {

class FaultInjector final : public net::Transport {
 public:
  struct Stats {
    std::uint64_t dropped_burst = 0;      // Gilbert–Elliott loss drops
    std::uint64_t dropped_partition = 0;  // partition-window drops
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;    // delay spikes
    std::uint64_t reordered = 0;  // reorder holds
    [[nodiscard]] std::uint64_t dropped() const noexcept {
      return dropped_burst + dropped_partition;
    }
  };

  FaultInjector(net::Transport& inner, sim::Simulator& sim,
                std::uint64_t seed)
      : inner_(inner), sim_(sim), seed_(seed) {}

  /// Installs a plan (validated). Safe mid-run: the timeline's kSetFaults
  /// event lands here. Sender chain states persist across plan swaps so a
  /// heal (empty plan) followed by a re-fault resumes the same streams.
  void set_plan(FaultPlan plan) {
    plan.validate();
    plan_ = std::move(plan);
  }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Forgets per-sender chain state and counters (Experiment::reset path);
  /// the plan itself is re-installed by the caller from the new config.
  void reset(std::uint64_t seed) {
    seed_ = seed;
    senders_.clear();
    stats_ = Stats{};
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Arms fault tracing (DESIGN.md §13); null disarms.
  void set_trace(obs::Recorder* trace) noexcept { trace_ = trace; }

  void send(NodeId from, NodeId to, sim::Channel channel, std::size_t bytes,
            gossip::Message message) override;

  /// Forwards the fan-out whole when the plan cannot touch it (empty plan
  /// or reliable channel); otherwise applies the plan per destination, in
  /// list order, exactly as a loop of send() would.
  void send_many(NodeId from, std::span<const NodeId> to,
                 sim::Channel channel, std::size_t bytes,
                 const gossip::Message& message) override;

 private:
  struct SenderState {
    Pcg32 rng;
    bool bad = false;  // Gilbert–Elliott chain state
  };
  SenderState& state_for(NodeId from);

  net::Transport& inner_;
  sim::Simulator& sim_;
  std::uint64_t seed_;
  FaultPlan plan_;
  // Dense by sender id; null until the sender first sends under a
  // non-empty plan, so empty-plan runs allocate nothing per node.
  std::vector<std::unique_ptr<SenderState>> senders_;
  Stats stats_;
  obs::Recorder* trace_ = nullptr;
};

}  // namespace lifting::faults

#endif  // LIFTING_FAULTS_INJECTOR_HPP
