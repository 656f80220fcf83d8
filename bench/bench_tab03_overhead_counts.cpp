/// Table 3 / §6.1 — verification message counts per node per gossip
/// period, measured in the packet simulator and compared with the
/// complexity model:
///   direct cross-check:  O(p_dcc·f²) confirms for the verifier,
///                        O(p_dcc·f)  acks for the inspected node,
///   blames:              O(M·f) worst case.
///
/// Sweeps f and p_dcc on an honest deployment and prints measured
/// per-node-per-period counts next to the model's leading terms.

#include <cstdio>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "runtime/experiment.hpp"

namespace {

namespace gossip = lifting::gossip;

struct CountRow {
  std::size_t fanout;
  double p_dcc;
  double acks;
  double confirm_reqs;
  double confirm_resps;
  double blames;
  double disseminations;
};

CountRow run(std::size_t fanout, double p_dcc) {
  auto cfg = lifting::runtime::ScenarioConfig::small(120);
  cfg.gossip.fanout = fanout;
  cfg.lifting.fanout = static_cast<std::uint32_t>(fanout);
  cfg.lifting.p_dcc = p_dcc;
  cfg.duration = lifting::seconds(20.0);
  cfg.stream.duration = lifting::seconds(18.0);
  cfg.stream.bitrate_bps = 320'000;
  cfg.stream.chunk_payload_bytes = 4'000;  // 10 chunks/s
  lifting::runtime::Experiment ex(cfg);
  ex.run();
  const auto& sent = ex.sent();
  const double node_periods =
      static_cast<double>(cfg.nodes) *
      (lifting::to_seconds(cfg.duration) /
       lifting::to_seconds(cfg.gossip.period));
  const auto per = [&](std::size_t kind) {
    return static_cast<double>(sent[kind].count) / node_periods;
  };
  double disseminations = 0.0;
  for (std::size_t k = 0; k < sent.size(); ++k) {
    if (gossip::kind_class(k) == gossip::KindClass::kDissemination) {
      disseminations += per(k);
    }
  }
  return CountRow{fanout,
                  p_dcc,
                  per(gossip::kind_index<gossip::AckMsg>()),
                  per(gossip::kind_index<gossip::ConfirmReqMsg>()),
                  per(gossip::kind_index<gossip::ConfirmRespMsg>()),
                  per(gossip::kind_index<gossip::BlameMsg>()),
                  disseminations};
}

}  // namespace

int main() {
  std::printf("=== Table 3: verification message counts per node per "
              "period ===\n");
  std::printf("(honest 120-node system, 10 chunks/s stream)\n\n");

  std::vector<std::pair<std::size_t, double>> grid{
      {4, 1.0}, {7, 1.0}, {10, 1.0}, {7, 0.5}, {7, 0.0}};
  std::vector<CountRow> rows(grid.size());
  {
    std::vector<std::jthread> workers;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      workers.emplace_back(
          [&, i] { rows[i] = run(grid[i].first, grid[i].second); });
    }
  }

  lifting::TextTable table({"f", "p_dcc", "acks", "confirms", "confirm "
                            "replies", "blames", "dissemination msgs"});
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.fanout),
                   lifting::TextTable::num(row.p_dcc, 1),
                   lifting::TextTable::num(row.acks, 2),
                   lifting::TextTable::num(row.confirm_reqs, 2),
                   lifting::TextTable::num(row.confirm_resps, 2),
                   lifting::TextTable::num(row.blames, 2),
                   lifting::TextTable::num(row.disseminations, 1)});
  }
  table.print();

  std::printf("\nexpected scaling: confirms ~ p_dcc·(servers/period)·f — "
              "watch them grow\nsuper-linearly in f and vanish at p_dcc=0; "
              "acks are independent of p_dcc\n(always sent); dissemination "
              "messages are f(2+|R|)-ish per §6.1.\n");
  return 0;
}
