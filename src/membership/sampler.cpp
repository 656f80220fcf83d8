#include "membership/sampler.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"

namespace lifting::membership {

void sample_uniform_into(Pcg32& rng, const Directory& directory, NodeId self,
                         std::size_t k,
                         std::vector<std::uint32_t>& index_scratch,
                         std::vector<NodeId>& out) {
  out.clear();
  const auto& live = directory.live();
  const bool self_live = directory.is_live(self);
  const std::size_t candidates = live.size() - (self_live ? 1 : 0);
  const std::size_t take = std::min(k, candidates);
  if (take == 0) return;

  // Sample indices over the candidate space [0, candidates) and shift
  // indices at/after the caller's slot so `self` is excluded in O(1).
  const std::size_t self_pos =
      self_live ? directory.position_of(self) : live.size();
  sample_k_distinct_into(rng, static_cast<std::uint32_t>(candidates),
                         static_cast<std::uint32_t>(take), index_scratch);
  out.reserve(take);
  for (const auto raw : index_scratch) {
    const std::size_t idx = (raw >= self_pos) ? raw + 1 : raw;
    out.push_back(live[idx]);
  }
}

void sample_view_into(Pcg32& rng, const Directory& directory, NodeId self,
                      std::size_t k, TimePoint now,
                      std::vector<std::uint32_t>& index_scratch,
                      std::vector<NodeId>& partners) {
  if (directory.view_lag() == Duration::zero()) {
    sample_uniform_into(rng, directory, self, k, index_scratch, partners);
    return;
  }
  const auto& live = directory.live();
  const auto& limbo = directory.limbo();
  const auto pool =
      static_cast<std::uint32_t>(live.size() + limbo.size());
  partners.clear();
  if (pool == 0) return;
  partners.reserve(k);
  // Rejection sampling over live ∪ limbo: the candidate pool mixes nodes
  // `self` knows about with departures it has not yet heard of; `sees`
  // filters both directions of divergence. Bounded attempts keep the loop
  // finite when most of the pool is invisible to this observer.
  const std::size_t max_attempts = 64 * std::max<std::size_t>(k, 1);
  std::size_t attempts = 0;
  while (partners.size() < k && attempts++ < max_attempts) {
    const auto idx = rng.below(pool);
    NodeId id;
    if (idx < live.size()) {
      id = live[idx];
    } else {
      const auto& entry = limbo[idx - live.size()];
      // A stale limbo entry (the id rejoined since) would double-count the
      // live incarnation; skip it.
      if (entry.epoch != directory.epoch_of(entry.id)) continue;
      id = entry.id;
    }
    if (id == self) continue;
    if (std::find(partners.begin(), partners.end(), id) != partners.end()) {
      continue;
    }
    if (!directory.sees(self, id, now)) continue;
    partners.push_back(id);
  }
}

std::vector<NodeId> sample_biased(Pcg32& rng, const Directory& directory,
                                  NodeId self, std::size_t k,
                                  const std::vector<NodeId>& coalition,
                                  double p_m) {
  // Live coalition members other than self.
  std::vector<NodeId> live_coalition;
  live_coalition.reserve(coalition.size());
  for (const auto id : coalition) {
    if (id != self && directory.is_live(id)) live_coalition.push_back(id);
  }
  const std::unordered_set<NodeId> coalition_set(live_coalition.begin(),
                                                 live_coalition.end());

  std::unordered_set<NodeId> chosen;
  std::vector<NodeId> partners;
  partners.reserve(k);
  std::vector<std::uint32_t> index_scratch;
  std::vector<NodeId> uniform;
  std::size_t coalition_used = 0;

  const auto try_add = [&](NodeId id) {
    if (id == self || !chosen.insert(id).second) return false;
    partners.push_back(id);
    if (coalition_set.contains(id)) ++coalition_used;
    return true;
  };

  // Each slot tosses the bias coin; within the chosen class the pick is
  // uniform — the entropy-maximizing strategy for the freerider (§6.3.2).
  // Rejection bounds keep the loop finite when a class is nearly exhausted.
  const std::size_t max_attempts = 64 * std::max<std::size_t>(k, 1);
  std::size_t attempts = 0;
  while (partners.size() < k && attempts++ < max_attempts) {
    const bool coalition_available = coalition_used < live_coalition.size();
    if (coalition_available && rng.bernoulli(p_m)) {
      const auto idx =
          rng.below(static_cast<std::uint32_t>(live_coalition.size()));
      try_add(live_coalition[idx]);
    } else {
      sample_uniform_into(rng, directory, self, 1, index_scratch, uniform);
      if (uniform.empty()) break;
      if (!coalition_set.contains(uniform.front())) {
        try_add(uniform.front());
      }
    }
  }
  // Fill any remaining slots with uniform picks regardless of class
  // (coalition exhausted or repeated rejections); stop when the membership
  // itself cannot supply more distinct partners.
  attempts = 0;
  while (partners.size() < k &&
         chosen.size() < directory.live_count() - (directory.is_live(self) ? 1 : 0) &&
         attempts++ < max_attempts) {
    sample_uniform_into(rng, directory, self, 1, index_scratch, uniform);
    if (uniform.empty()) break;
    try_add(uniform.front());
  }
  return partners;
}

}  // namespace lifting::membership
