/// Table 1 — attacks and their blame values, regenerated from the
/// implementation's own constants by driving the verifier state machines
/// through each attack and printing the blame each one yields.

#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "lifting/verifier.hpp"
#include "sim/simulator.hpp"

namespace {

struct Capture {
  double total = 0.0;
  lifting::BlameFn fn() {
    return [this](lifting::NodeId, double v, lifting::gossip::BlameReason) {
      total += v;
    };
  }
};

}  // namespace

int main() {
  using namespace lifting;

  LiftingParams params;
  params.fanout = 7;
  params.p_dcc = 1.0;
  const double f = 7.0;

  TextTable table({"attack", "paper blame", "measured"});

  // Fanout decrease: ack lists f̂ = 5 < f = 7 partners.
  {
    sim::Simulator sim;
    Capture cap;
    Pcg32 rng{1};
    CrossChecker cc(sim, params, params.p_dcc, NodeId{0}, rng, cap.fn(),
                    [](std::span<const NodeId>, const gossip::Message&) {});
    cc.on_chunks_served(NodeId{1}, 1, {ChunkId{1}});
    gossip::AckMsg ack{2, {ChunkId{1}},
                       {NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}, NodeId{6}}};
    cc.on_ack_received(NodeId{1}, ack);
    // All five witnesses testify "yes" so only the fanout blame remains.
    for (std::uint32_t w = 2; w <= 6; ++w) {
      cc.on_confirm_response(NodeId{w},
                             gossip::ConfirmRespMsg{NodeId{1}, 2, true});
    }
    sim.run();
    table.add_row({"fanout decrease (f^=5)", "f - f^ = 2",
                   TextTable::num(cap.total, 1)});
  }

  // Partial propose: one witness contradicts per invalid proposal.
  {
    sim::Simulator sim;
    Capture cap;
    Pcg32 rng{2};
    CrossChecker cc(sim, params, params.p_dcc, NodeId{0}, rng, cap.fn(),
                    [](std::span<const NodeId>, const gossip::Message&) {});
    cc.on_chunks_served(NodeId{1}, 1, {ChunkId{1}});
    gossip::AckMsg ack{2, {ChunkId{1}},
                       {NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}, NodeId{6},
                        NodeId{7}, NodeId{8}}};
    cc.on_ack_received(NodeId{1}, ack);
    for (std::uint32_t w = 2; w <= 8; ++w) {
      // Every witness contradicts: the proposal omitted the served chunks.
      cc.on_confirm_response(NodeId{w},
                             gossip::ConfirmRespMsg{NodeId{1}, 2, false});
    }
    sim.run();
    table.add_row({"partial propose (all 7 witnesses deny)",
                   "1 per verifier = 7", TextTable::num(cap.total, 1)});
  }

  // Partial serve: |S| = 1 of |R| = 4.
  {
    sim::Simulator sim;
    Capture cap;
    DirectVerifier dv(sim, params, cap.fn());
    dv.on_request_sent(NodeId{1}, 1,
                       {ChunkId{1}, ChunkId{2}, ChunkId{3}, ChunkId{4}});
    dv.on_serve_received(NodeId{1}, 1, ChunkId{1});
    sim.run();
    table.add_row({"partial serve (|S|=1, |R|=4)",
                   "f(|R|-|S|)/|R| = 5.25", TextTable::num(cap.total, 2)});
  }

  // No serve at all.
  {
    sim::Simulator sim;
    Capture cap;
    DirectVerifier dv(sim, params, cap.fn());
    dv.on_request_sent(NodeId{1}, 1, {ChunkId{1}, ChunkId{2}});
    sim.run();
    table.add_row({"no serve (|S|=0)", "f = 7", TextTable::num(cap.total, 1)});
  }

  // No acknowledgment after a serve.
  {
    sim::Simulator sim;
    Capture cap;
    Pcg32 rng{3};
    CrossChecker cc(sim, params, params.p_dcc, NodeId{0}, rng, cap.fn(),
                    [](std::span<const NodeId>, const gossip::Message&) {});
    cc.on_chunks_served(NodeId{1}, 1, {ChunkId{1}});
    sim.run();
    table.add_row({"no acknowledgment", "f = 7", TextTable::num(cap.total, 1)});
  }

  std::printf("=== Table 1: attacks and blame values (f = %.0f, |R| = 4) "
              "===\n\n", f);
  table.print();
  return 0;
}
