/// Figure 13 — distribution of the entropy of nodes' histories under a
/// full-membership uniform partner selection: 10,000 nodes, histories of
/// n_h·f = 600 entries (n_h = 50, f = 12).
///
/// Paper: fanout entropy in [9.11, 9.21] (max log2(600) = 9.23); fanin
/// entropy wider, [8.98, 9.34]; γ = 8.95 wrongfully expels ~nobody.
///
/// Sharded over the ParallelRunner: each task simulates partner selection
/// for a fixed slice of the pickers from its own RNG stream. Fanout
/// entropy is a per-picker quantity and reduces trivially; fanin count
/// lists merge by concatenation (a picker appears in exactly one shard, so
/// per-target count multisets are disjoint across shards) and are sorted
/// before the entropy fold, making every printed number independent of the
/// thread count AND of unordered-map iteration order.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "common/build_info.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "membership/directory.hpp"
#include "membership/sampler.hpp"
#include "runtime/runner.hpp"
#include "stats/entropy.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace lifting;

  const std::uint32_t n = 10'000;
  const std::uint32_t nh = 50;
  const std::uint32_t fanout = 12;
  const double gamma = 8.95;

  runtime::ParallelRunner runner(
      runtime::ParallelRunner::threads_from_args(argc, argv));

  std::printf("=== Figure 13: entropy of node histories (n=%u, n_h=%u, "
              "f=%u) [build=%s threads=%u] ===\n\n",
              n, nh, fanout, build_type(), runner.threads());

  constexpr std::size_t kShards = 16;  // fixed: results don't follow threads
  struct Partial {
    stats::Summary fanout_entropy;
    stats::Histogram fanout_hist{8.8, 9.4, 48};
    std::size_t over_gamma_fanout = 0;
    /// fanin_counts[target] = this shard's per-picker contact counts.
    std::vector<std::vector<std::uint64_t>> fanin_counts;
  };
  const auto partials = runner.map<Partial>(kShards, [&](std::size_t shard) {
    Partial p;
    p.fanin_counts.resize(n);
    membership::Directory directory(n);
    Pcg32 rng = derive_rng(20130, shard);
    std::vector<std::unordered_map<std::uint32_t, std::uint64_t>> fanin(n);
    std::vector<std::uint32_t> index_scratch;
    std::vector<NodeId> partners;
    const auto slice = runtime::shard_range(shard, kShards, n);
    for (auto node = static_cast<std::uint32_t>(slice.lo);
         node < static_cast<std::uint32_t>(slice.hi); ++node) {
      std::unordered_map<std::uint32_t, std::uint64_t> counts;
      for (std::uint32_t round = 0; round < nh; ++round) {
        membership::sample_uniform_into(rng, directory, NodeId{node}, fanout,
                                        index_scratch, partners);
        for (const auto partner : partners) {
          ++counts[partner.value()];
          ++fanin[partner.value()][node];
        }
      }
      std::vector<std::uint64_t> flat;
      flat.reserve(counts.size());
      for (const auto& [id, c] : counts) flat.push_back(c);
      std::sort(flat.begin(), flat.end());  // iteration-order independence
      const double h = stats::shannon_entropy(flat);
      p.fanout_entropy.add(h);
      p.fanout_hist.add(h);
      if (h >= gamma) ++p.over_gamma_fanout;
    }
    for (std::uint32_t target = 0; target < n; ++target) {
      auto& flat = p.fanin_counts[target];
      flat.reserve(fanin[target].size());
      for (const auto& [picker, c] : fanin[target]) flat.push_back(c);
    }
    return p;
  });

  // ---- task-ordered reduce
  stats::Summary fanout_entropy;
  stats::Histogram fanout_hist(8.8, 9.4, 48);
  std::size_t over_gamma_fanout = 0;
  for (const auto& p : partials) {
    fanout_entropy.merge(p.fanout_entropy);
    fanout_hist.merge(p.fanout_hist);
    over_gamma_fanout += p.over_gamma_fanout;
  }

  stats::Summary fanin_entropy;
  stats::Histogram fanin_hist(8.8, 9.4, 48);
  std::size_t over_gamma_fanin = 0;
  std::vector<std::uint64_t> merged;
  for (std::uint32_t target = 0; target < n; ++target) {
    merged.clear();
    for (const auto& p : partials) {
      merged.insert(merged.end(), p.fanin_counts[target].begin(),
                    p.fanin_counts[target].end());
    }
    std::sort(merged.begin(), merged.end());  // deterministic fold order
    const double h = stats::shannon_entropy(merged);
    fanin_entropy.add(h);
    fanin_hist.add(h);
    if (h >= gamma) ++over_gamma_fanin;
  }

  std::printf("(a) fanout entropy: range [%.3f, %.3f], mean %.3f\n",
              fanout_entropy.min(), fanout_entropy.max(),
              fanout_entropy.mean());
  std::printf("    paper: [9.11, 9.21], hard max log2(600)=%.3f\n",
              std::log2(600.0));
  std::printf("    expected (collision model): %.3f\n\n",
              stats::expected_uniform_entropy(n, nh * fanout));
  std::printf("%s\n", fanout_hist.render(40).c_str());

  std::printf("(b) fanin entropy: range [%.3f, %.3f], mean %.3f\n",
              fanin_entropy.min(), fanin_entropy.max(), fanin_entropy.mean());
  std::printf("    paper: [8.98, 9.34] (|F'_h| varies around n_h·f)\n\n");
  std::printf("%s\n", fanin_hist.render(40).c_str());

  std::printf("honest nodes passing gamma=%.2f: fanout %.2f%%, fanin "
              "%.2f%%  (paper: ~100%%)\n",
              gamma, 100.0 * static_cast<double>(over_gamma_fanout) / n,
              100.0 * static_cast<double>(over_gamma_fanin) / n);
  return 0;
}
