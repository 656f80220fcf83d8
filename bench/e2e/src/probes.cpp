// Isolated probes: each times one public call of one layer at the depth,
// population and message mix its workload actually showed, so a layer's
// cost can be read apart from everything else in a run.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "gossip/message.hpp"
#include "net/codec.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace lifting::e2e {

namespace {

/// Wall time each probe measures for, after its warm-up.
constexpr double kProbeSeconds = 0.5;
/// Probe events are due uniformly within one gossip period ahead.
constexpr std::uint32_t kSpreadUs = 500'000;

/// An event that reschedules itself, holding the queue at constant depth.
struct Reschedule {
  sim::Simulator* sim;
  Pcg32* rng;
  void operator()() const {
    sim->schedule_after(Duration{rng->below(kSpreadUs)}, Reschedule{*this});
  }
};

/// One representative message per gossip::Message alternative, shaped like
/// the planetlab preset's traffic (|R| ≈ 4, f = 7, 25 s audit histories).
std::vector<gossip::Message> sample_messages() {
  using namespace gossip;
  ChunkIdList chunks;
  for (std::uint32_t i = 0; i < 4; ++i) chunks.push_back(ChunkId{1000 + i});
  PartnerList partners;
  std::vector<NodeId> partner_vec;
  for (std::uint32_t i = 1; i <= 7; ++i) {
    partners.push_back(NodeId{i});
    partner_vec.push_back(NodeId{i});
  }
  const HistoryProposalRecord record{5, partner_vec, chunks};
  std::vector<Message> m;
  m.emplace_back(ProposeMsg{7, chunks});
  m.emplace_back(RequestMsg{7, chunks});
  m.emplace_back(ServeMsg{7, ChunkId{1234}, 1504, NodeId{3}});
  m.emplace_back(AckMsg{7, chunks, partners});
  m.emplace_back(ConfirmReqMsg{NodeId{4}, 7, chunks});
  m.emplace_back(ConfirmRespMsg{NodeId{4}, 7, true});
  m.emplace_back(BlameMsg{NodeId{5}, 2.5, BlameReason::kInvalidAck});
  m.emplace_back(ScoreQueryMsg{NodeId{5}, 9});
  m.emplace_back(ScoreReplyMsg{NodeId{5}, 9, -1.5, false});
  m.emplace_back(ExpelRequestMsg{NodeId{5}, -4.0});
  m.emplace_back(ExpelVoteMsg{NodeId{5}, true});
  m.emplace_back(ExpelCommitMsg{NodeId{5}, false});
  m.emplace_back(AuditRequestMsg{11});
  m.emplace_back(AuditHistoryMsg{11, std::vector<HistoryProposalRecord>(50, record)});
  m.emplace_back(HistoryPollMsg{11, NodeId{5}, std::vector<HistoryProposalRecord>(7, record)});
  m.emplace_back(HistoryPollRespMsg{11, NodeId{5}, 40, 2, partner_vec});
  m.emplace_back(AuditAckMsg{13, 11, NodeId{5}});
  m.emplace_back(RpsShuffleMsg{3, 0, std::vector<RpsViewEntry>(6, RpsViewEntry{NodeId{8}, 2, 1, 0})});
  return m;
}

}  // namespace

double probe_queue_ns(std::size_t depth) {
  sim::Simulator sim;
  Pcg32 rng(0x51554555ULL);
  depth = std::max<std::size_t>(depth, 1);
  sim.reserve_events(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_after(Duration{rng.below(kSpreadUs)}, Reschedule{&sim, &rng});
  }
  sim.run_until(sim.now() + Duration{kSpreadUs});  // warm the arena
  const auto events0 = sim.events_processed();
  const double t0 = now_s();
  while (now_s() - t0 < kProbeSeconds) {
    sim.run_until(sim.now() + milliseconds(20));
  }
  const double elapsed = now_s() - t0;
  return elapsed * 1e9 / static_cast<double>(sim.events_processed() - events0);
}

double probe_network_ns(Kind kind, const RunPlan& plan,
                        double datagrams_per_sim_s, double mean_bytes) {
  const auto cfg = workload_config(kind, plan);
  sim::Simulator sim;
  sim::Network<gossip::Message> net(sim, derive_rng(cfg.seed, 0x4E4554ULL));
  auto rng = derive_rng(cfg.seed, 0x50524F4245ULL);
  std::uint64_t delivered = 0;
  const auto weak = static_cast<std::uint32_t>(cfg.weak_fraction * cfg.nodes);
  net.reserve_nodes(cfg.nodes);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    net.add_node(NodeId{i}, i < weak ? cfg.weak_link : cfg.link,
                 [&delivered](sim::Delivery<gossip::Message>&) { ++delivered; });
  }
  // The workload's datagram rate, spread over the population 1 ms at a
  // time so uplink queues see the load they saw in the run.
  const auto per_ms = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(datagrams_per_sim_s / 1000.0));
  const auto bytes = static_cast<std::size_t>(std::max(1.0, mean_bytes));
  std::uint64_t sent = 0;
  const auto step = [&] {
    for (std::uint64_t k = 0; k < per_ms; ++k) {
      const NodeId from{rng.below(cfg.nodes)};
      NodeId to{rng.below(cfg.nodes - 1)};
      if (to.value() >= from.value()) to = NodeId{to.value() + 1};
      net.send(from, to, sim::Channel::kDatagram, bytes, gossip::Message{});
    }
    sent += per_ms;
    sim.run_until(sim.now() + milliseconds(1));
  };
  for (int i = 0; i < 1000; ++i) step();  // one simulated second of warm-up
  const auto sent0 = sent;
  const double t0 = now_s();
  while (now_s() - t0 < kProbeSeconds) step();
  const double elapsed = now_s() - t0;
  if (delivered == 0) throw std::runtime_error("network probe delivered nothing");
  return elapsed * 1e9 / static_cast<double>(sent - sent0);
}

double probe_codec_ns(const std::vector<double>& kind_counts) {
  const auto samples = sample_messages();
  double total = 0.0;
  for (const double c : kind_counts) total += c;
  if (total <= 0.0) return 0.0;
  // A fixed sequence of 100k messages drawn in the observed kind mix.
  Pcg32 rng(0x434F444543ULL);
  std::vector<std::size_t> sequence;
  sequence.reserve(100'000);
  while (sequence.size() < 100'000) {
    double pick = rng.uniform() * total;
    std::size_t k = 0;
    while (k + 1 < kind_counts.size() && pick >= kind_counts[k]) {
      pick -= kind_counts[k];
      ++k;
    }
    sequence.push_back(k);
  }
  std::uint64_t messages = 0;
  const double t0 = now_s();
  while (now_s() - t0 < kProbeSeconds) {
    for (const std::size_t k : sequence) {
      const auto bytes = net::encode(samples[k]);
      const auto back = net::decode(bytes);
      if (!back || back->index() != k) {
        throw std::runtime_error(std::string("codec round trip failed for ") +
                                 gossip::message_kind_name(k));
      }
    }
    messages += sequence.size();
  }
  return (now_s() - t0) * 1e9 / static_cast<double>(messages);
}

}  // namespace lifting::e2e
