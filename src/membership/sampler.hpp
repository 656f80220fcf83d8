#ifndef LIFTING_MEMBERSHIP_SAMPLER_HPP
#define LIFTING_MEMBERSHIP_SAMPLER_HPP

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "membership/directory.hpp"

/// Partner selection policies.
///
/// Honest nodes select gossip partners uniformly at random (§3). Colluding
/// freeriders bias the selection toward their coalition with probability
/// p_m (§4.1 attack (iii), analyzed in §6.3.2) — the attack the entropy
/// audit is designed to catch.

namespace lifting::membership {

/// Picks `k` distinct live partners uniformly at random, excluding `self`,
/// into `out` (cleared; capacity reused), using `index_scratch` for the
/// k-subset draw. If fewer than k candidates exist, `out` gets all of them
/// (shuffled). The per-period partner pick is the gossip loop's hottest
/// sampler, and with retained capacity it never touches the allocator in
/// steady state.
void sample_uniform_into(Pcg32& rng, const Directory& directory, NodeId self,
                         std::size_t k,
                         std::vector<std::uint32_t>& index_scratch,
                         std::vector<NodeId>& out);

/// View-aware uniform selection (DESIGN.md §7): picks up to `k` distinct
/// partners uniformly from what `self` currently *believes* the membership
/// is — joins it has not yet learned of are excluded, recent departures it
/// has not yet learned of are still included (the directory's limbo list).
/// With the view model off (view_lag() == 0) this is sample_uniform_into
/// down to the exact rng draw sequence, so fixed-seed goldens are
/// unaffected. Same scratch and output contract as sample_uniform_into.
void sample_view_into(Pcg32& rng, const Directory& directory, NodeId self,
                      std::size_t k, TimePoint now,
                      std::vector<std::uint32_t>& index_scratch,
                      std::vector<NodeId>& out);

/// Biased selection used by colluding freeriders: each slot is filled with
/// a (uniform) coalition member with probability `p_m`, otherwise with a
/// uniform non-coalition node. Partners are distinct; when the coalition is
/// exhausted the remaining slots fall back to honest nodes (a coalition of
/// size m' < k cannot fill every slot — paper §6.3.2 requires n_h·f >> m').
[[nodiscard]] std::vector<NodeId> sample_biased(
    Pcg32& rng, const Directory& directory, NodeId self, std::size_t k,
    const std::vector<NodeId>& coalition, double p_m);

}  // namespace lifting::membership

#endif  // LIFTING_MEMBERSHIP_SAMPLER_HPP
