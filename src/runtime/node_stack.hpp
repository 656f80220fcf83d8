#ifndef LIFTING_RUNTIME_NODE_STACK_HPP
#define LIFTING_RUNTIME_NODE_STACK_HPP

#include <cstdint>
#include <memory>

#include "gossip/engine.hpp"
#include "lifting/agent.hpp"
#include "membership/rps.hpp"
#include "runtime/scenario.hpp"

/// One node's protocol stack — the gossip Engine (paper §4) plus, when
/// LiFTinG is on, the Agent (§5) — and the one function that builds it.
/// Experiment holds one per node, NodeHost the one of its process, so every
/// rule about a node's stack lives here: the per-node rng streams,
/// emit_acks = lifting_enabled, stream pre-sizing, the optional RPS partner
/// view, trace arming, the gossip-vs-LiFTinG routing split and the
/// start/stop order.

namespace lifting::runtime {

/// Rng-stream key for incarnations past the first: purpose tag, node id
/// and epoch occupy fully disjoint bit fields (56..63 / 24..55 / 0..23),
/// so no two (purpose, node, epoch) triples can alias.
[[nodiscard]] inline std::uint64_t incarnation_stream(std::uint64_t purpose,
                                                      std::uint32_t node,
                                                      std::uint32_t epoch) {
  return splitmix64((purpose << 56U) |
                    (static_cast<std::uint64_t>(node) << 24U) | epoch);
}

/// A desynchronized start offset: a uniform fraction of one gossip period,
/// drawn from `rng` (the caller picks the stream).
[[nodiscard]] inline Duration draw_start_offset(Pcg32& rng, Duration period) {
  return Duration{static_cast<Duration::rep>(
      rng.uniform() * static_cast<double>(period.count()))};
}

class NodeStack {
 public:
  /// derive_rng keys of one node incarnation.
  struct Streams {
    std::uint64_t agent, engine, start_offset;
  };

  /// Epochs 0 and 1 keep the legacy disjoint 2^32-wide bases (fixed-seed
  /// goldens; the old 0x1000+i / 0x2000+i scheme gave node 4096+k's agent
  /// node k's engine stream). A rejoined incarnation must not replay its
  /// predecessor's randomness, so later epochs go through
  /// incarnation_stream.
  [[nodiscard]] static Streams streams(std::uint32_t node,
                                       std::uint32_t epoch) noexcept {
    if (epoch <= 1) {
      return {0xA00000000ULL + node, 0xB00000000ULL + node,
              0x9000000000ULL + node};
    }
    return {incarnation_stream(0xA5, node, epoch),
            incarnation_stream(0xB5, node, epoch),
            incarnation_stream(0x95, node, epoch)};
  }

  /// The start offset of a joining or rejoining incarnation, drawn from
  /// its own stream (the simulator's initial population draws its offsets
  /// from the deployment rng instead).
  [[nodiscard]] static Duration join_offset(const ScenarioConfig& config,
                                            std::uint32_t node,
                                            std::uint32_t epoch) {
    auto rng = derive_rng(config.seed, streams(node, epoch).start_offset);
    return draw_start_offset(rng, config.gossip.period);
  }

  NodeStack() = default;  ///< an empty slot

  /// Builds node `id`'s stack at its current directory epoch, with agent
  /// genesis = now (a joiner's score covers only its time in the system).
  /// `assignment` is the deployment's shared manager table and `hooks` its
  /// one Hooks, which the agent holds by reference (both read only with
  /// LiFTinG on); a non-null `rps` becomes the partner view, a non-null
  /// `recorder` arms tracing.
  NodeStack(sim::Simulator& sim, gossip::Mailer& mailer,
            membership::Directory& directory, const ScenarioConfig& config,
            NodeId id, const gossip::BehaviorSpec& behavior,
            const std::shared_ptr<lifting::ManagerAssignment>& assignment,
            const lifting::Agent::Hooks& hooks = lifting::Agent::no_hooks(),
            const membership::RpsNetwork* rps = nullptr,
            obs::Recorder* recorder = nullptr) {
    const auto keys = streams(id.value(), directory.epoch_of(id));
    if (config.lifting_enabled) {
      agent_ = std::make_unique<lifting::Agent>(
          sim, mailer, directory, id, config.lifting, behavior,
          derive_rng(config.seed, keys.agent), config.seed, sim.now(), hooks,
          assignment);
    }
    auto params = config.gossip;
    params.emit_acks = config.lifting_enabled;
    engine_ = std::make_unique<gossip::Engine>(
        sim, mailer, directory, id, params, behavior,
        derive_rng(config.seed, keys.engine), agent_.get());
    engine_->reserve_stream_chunks(config.stream.expected_chunks());
    if (rps != nullptr) engine_->set_partner_view(rps);
    // Late joiners and rejoiners enter an armed deployment already traced.
    if (recorder != nullptr) set_trace(recorder);
  }

  /// The leading Message alternatives are the gossip kinds (order pinned
  /// next to the variant); the rest is LiFTinG traffic, dropped without it.
  void handle(NodeId from, const gossip::Message& msg) {
    if (msg.index() < gossip::kGossipKindCount) {
      engine_->handle(from, msg);
    } else if (agent_) {
      agent_->handle(from, msg);
    }
  }

  void start(Duration offset) {
    engine_->start(offset);
    if (agent_) agent_->start(offset);
  }

  /// Stops the periodic loops; the objects keep answering incoming
  /// traffic (in-place retirement, DESIGN.md §5).
  void stop() noexcept {
    engine_->stop();
    if (agent_) agent_->stop();
  }

  void set_behavior(const gossip::BehaviorSpec& spec) {
    engine_->set_behavior(spec);
    if (agent_) agent_->set_behavior(spec);
  }

  void set_trace(obs::Recorder* recorder) noexcept {
    engine_->set_trace(recorder);
    if (agent_) agent_->set_trace(recorder);
  }

  [[nodiscard]] gossip::Engine& engine() const noexcept { return *engine_; }
  /// Null when LiFTinG is disabled.
  [[nodiscard]] lifting::Agent* agent() const noexcept { return agent_.get(); }

 private:
  std::unique_ptr<lifting::Agent> agent_;
  std::unique_ptr<gossip::Engine> engine_;
};

// Experiment holds one stack per node of populations up to 1M: nothing
// beyond the two owners may live here.
static_assert(sizeof(NodeStack) == 2 * sizeof(void*));

}  // namespace lifting::runtime

#endif  // LIFTING_RUNTIME_NODE_STACK_HPP
