#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "runtime/node_host.hpp"
#include "runtime/wire_scenario.hpp"

namespace lifting::runtime {
namespace {

/// In-process wire deployment: one NodeHost (the lifting_node daemon's
/// stack) per thread, real UDP datagrams between them — the multi-process
/// launcher path minus fork/exec, so it runs inside the test suite and
/// under sanitizers. Hosts share nothing but the port roster, exactly like
/// separate processes would.
TEST(WireDeploy, LoopbackStreamReachesEveryNode) {
  auto config = ScenarioConfig::small(8);
  config.stream.duration = seconds(1.2);
  config.duration = seconds(2.0);

  std::string why;
  ASSERT_TRUE(wire_supported(config, &why)) << why;

  std::vector<std::unique_ptr<NodeHost>> hosts;
  std::vector<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    hosts.push_back(std::make_unique<NodeHost>(config, NodeId{i}));
    ports.push_back(hosts.back()->port());
    ASSERT_NE(ports.back(), 0u);
  }
  for (auto& host : hosts) host->set_roster(ports);

  EXPECT_TRUE(hosts[0]->is_source());
  EXPECT_FALSE(hosts[1]->is_source());

  std::vector<std::thread> threads;
  threads.reserve(hosts.size());
  for (auto& host : hosts) {
    threads.emplace_back([&host] { host->run(); });
  }
  for (auto& thread : threads) thread.join();

  const auto emitted = hosts[0]->chunks_emitted();
  ASSERT_GT(emitted, 0u);
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    const auto& udp = hosts[i]->transport();
    EXPECT_EQ(udp.decode_failures(), 0u) << "node " << i;
    EXPECT_EQ(udp.socket_errors(), 0u) << "node " << i;
    EXPECT_EQ(udp.send_failures(), 0u) << "node " << i;
    if (i == 0) continue;
    // Loopback, no loss: the stream must substantially arrive everywhere.
    EXPECT_GE(hosts[i]->engine_stats().chunks_received + 1, emitted)
        << "node " << i << " received "
        << hosts[i]->engine_stats().chunks_received << "/" << emitted;
  }

  // The drive loop is event-driven: every wake is owed to a due timer, a
  // datagram, stream end or drain end. A busy-waiting loop wakes thousands
  // of times per host here; a count bound, unlike a CPU-time bound, holds
  // under sanitizers too.
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    obs::Registry reg;
    hosts[i]->collect_metrics(reg);
    const auto wakeups = reg.counter("loop_wakeups");
    const auto timers = reg.counter("timers_fired");
    const auto datagrams = reg.counter("messages_received");
    EXPECT_GT(wakeups, 0u) << "node " << i;
    EXPECT_LE(wakeups, 2 * (timers + datagrams) + 16)
        << "node " << i << ": " << wakeups << " wakeups for " << timers
        << " timers and " << datagrams << " datagrams";
  }

  // The wire-vs-model identity on live traffic: serves cost model + 10 B,
  // every other UDP kind model + 6 B per datagram (see lifting_loopback).
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    const auto& stats = hosts[i]->transport().wire_stats();
    for (std::size_t k = 0; k < stats.size(); ++k) {
      if (stats[k].count == 0 || k >= 12) continue;  // audit kinds: launcher
      const std::uint64_t delta = k == 2 ? 10 : 6;
      EXPECT_EQ(stats[k].wire_bytes,
                stats[k].modeled_bytes + delta * stats[k].count)
          << "node " << i << " kind " << k;
    }
  }
}

/// Roles and derived state agree across independently-built hosts: the
/// freerider set comes out of the config, not out of coordination.
TEST(WireDeploy, RolesDeriveConsistentlyFromConfig) {
  auto config = ScenarioConfig::small(12);
  config.freerider_fraction = 0.25;

  std::uint32_t freeriders = 0;
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    NodeHost host(config, NodeId{i});
    if (host.is_freerider()) ++freeriders;
    if (i == 0) EXPECT_TRUE(host.is_source());
  }
  EXPECT_EQ(freeriders, 3u);  // floor(0.25 * 12), source excluded by seed
}

}  // namespace
}  // namespace lifting::runtime
