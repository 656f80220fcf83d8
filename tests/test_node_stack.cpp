#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "gossip/stream_source.hpp"
#include "runtime/node_stack.hpp"
#include "sim/network.hpp"

namespace lifting::runtime {
namespace {

const std::vector<std::uint32_t> kNodeGrid = {
    0, 1, 2, 299, 4095, 4096, 4097, 65535, 1U << 20, 0xFFFFFFFFU};

bool in_legacy_range(std::uint64_t key) {
  const auto within = [key](std::uint64_t base) {
    return key >= base && key - base <= 0xFFFFFFFFULL;
  };
  return within(0xA00000000ULL) || within(0xB00000000ULL) ||
         within(0x9000000000ULL);
}

TEST(NodeStack, EpochOneKeysAreTheLegacyConstants) {
  for (const auto node : kNodeGrid) {
    for (const std::uint32_t epoch : {0U, 1U}) {
      const auto keys = NodeStack::streams(node, epoch);
      EXPECT_EQ(keys.agent, 0xA00000000ULL + node) << node;
      EXPECT_EQ(keys.engine, 0xB00000000ULL + node) << node;
      EXPECT_EQ(keys.start_offset, 0x9000000000ULL + node) << node;
    }
  }
}

TEST(NodeStack, LaterEpochKeysNeverAlias) {
  std::set<std::uint64_t> first;
  for (const auto node : kNodeGrid) {
    const auto keys = NodeStack::streams(node, 1);
    first.insert({keys.agent, keys.engine, keys.start_offset});
  }
  std::set<std::uint64_t> later;
  std::size_t drawn = 0;
  for (const auto node : kNodeGrid) {
    for (std::uint32_t epoch = 2; epoch <= 64; ++epoch) {
      const auto keys = NodeStack::streams(node, epoch);
      for (const auto key : {keys.agent, keys.engine, keys.start_offset}) {
        ++drawn;
        later.insert(key);
        EXPECT_EQ(first.count(key), 0u) << node << "@" << epoch;
        EXPECT_FALSE(in_legacy_range(key)) << node << "@" << epoch;
      }
    }
  }
  EXPECT_EQ(later.size(), drawn) << "two (purpose, node, epoch) keys alias";
}

/// A perfect-network population of NodeStacks built exactly as both
/// backends build them, with a stream source at node 0.
struct StackFixture {
  explicit StackFixture(bool lifting_enabled)
      : config(make_config(lifting_enabled)),
        directory(config.nodes),
        network(sim, derive_rng(config.seed, 0x02)),
        mailer(network) {
    if (config.lifting_enabled) {
      assignment = std::make_shared<lifting::ManagerAssignment>(
          config.nodes, config.lifting.managers, config.seed);
    }
    stacks.resize(config.nodes);
    for (std::uint32_t i = 0; i < config.nodes; ++i) {
      stacks[i] = NodeStack(sim, mailer, directory, config, NodeId{i},
                            gossip::BehaviorSpec::honest(), assignment);
      network.add_node(NodeId{i}, config.link,
                       [this, i](const sim::Delivery<gossip::Message>& d) {
                         stacks[i].handle(d.from, d.payload);
                       });
    }
  }

  static ScenarioConfig make_config(bool lifting_enabled) {
    auto cfg = ScenarioConfig::small(12);
    cfg.lifting_enabled = lifting_enabled;
    cfg.stream.duration = seconds(3.0);
    return cfg;
  }

  void stream_for(Duration span) {
    gossip::StreamSource source(sim, stacks[0].engine(), config.stream);
    Pcg32 rng = derive_rng(config.seed, 0xE58);
    for (auto& stack : stacks) {
      stack.start(draw_start_offset(rng, config.gossip.period));
    }
    source.start();
    sim.run_until(kSimEpoch + span);
    source.stop();
    for (auto& stack : stacks) stack.stop();
    sim.run();
  }

  ScenarioConfig config;
  sim::Simulator sim;
  membership::Directory directory;
  sim::Network<gossip::Message> network;
  gossip::Mailer mailer;
  std::shared_ptr<lifting::ManagerAssignment> assignment;
  std::vector<NodeStack> stacks;
};

TEST(NodeStack, WithoutLiftingThereIsNoAgentAndNoAck) {
  StackFixture off(/*lifting_enabled=*/false);
  for (const auto& stack : off.stacks) EXPECT_EQ(stack.agent(), nullptr);

  // LiFTinG traffic reaching a LiFTinG-less stack is dropped: nothing is
  // sent, nothing is scheduled.
  off.stacks[1].handle(NodeId{2}, gossip::BlameMsg{NodeId{3}, 1.0});
  off.stacks[1].handle(NodeId{2}, gossip::ScoreQueryMsg{NodeId{1}, 7});
  EXPECT_FALSE(off.sim.has_pending());
  for (const auto& kind : off.mailer.sent()) EXPECT_EQ(kind.count, 0u);

  constexpr auto kServe = gossip::kind_index<gossip::ServeMsg>();
  constexpr auto kAck = gossip::kind_index<gossip::AckMsg>();
  off.stream_for(seconds(4.0));
  EXPECT_GT(off.mailer.sent()[kServe].count, 0u);
  EXPECT_GT(off.stacks[5].engine().stats().chunks_received, 0u);
  EXPECT_EQ(off.mailer.sent()[kAck].count, 0u);

  // The same population with LiFTinG on builds agents and acknowledges.
  StackFixture on(/*lifting_enabled=*/true);
  for (const auto& stack : on.stacks) EXPECT_NE(stack.agent(), nullptr);
  on.stream_for(seconds(4.0));
  EXPECT_GT(on.mailer.sent()[kAck].count, 0u);
}

}  // namespace
}  // namespace lifting::runtime
