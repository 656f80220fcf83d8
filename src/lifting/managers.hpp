#ifndef LIFTING_LIFTING_MANAGERS_HPP
#define LIFTING_LIFTING_MANAGERS_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/formulas.hpp"
#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "gossip/message.hpp"
#include "lifting/params.hpp"

/// Alliatrust-like reputation architecture (paper §5.1): every node is
/// assigned M managers that accumulate the blames against it. Reads take
/// the minimum over the managers' replies (robust to lost blame messages
/// and to colluding managers inflating scores); expulsions are agreed among
/// the managers.

namespace lifting {

/// Deterministic manager assignment: every participant can derive the M
/// managers of any node from the shared deployment seed (the paper assigns
/// "M random managers"; a shared hash achieves that without coordination).
///
/// `n` is the *base* population: managers are always drawn from the initial
/// id range [0, n). A target outside that range (a churn joiner) still gets
/// M deterministic managers from the base pool — every participant derives
/// the same set from (target, n, m, seed) the moment the joiner appears,
/// with no reassignment protocol. When a base-pool manager departs, the
/// ManagerAssignment below promotes a deterministic replacement (DESIGN.md
/// §7); without handoff the min-vote read tolerates the shrunken quorum.
[[nodiscard]] std::vector<NodeId> managers_of(NodeId target, std::uint32_t n,
                                              std::uint32_t m,
                                              std::uint64_t seed);

/// Allocation-free managers_of: writes up to min(m, ...) managers into
/// `out` (which must have room for m entries) and returns the count, using
/// `index_scratch` for the k-subset draw. Identical rng draw sequence and
/// result as managers_of — this is what fills the ManagerAssignment's flat
/// row storage without a per-row heap vector.
std::uint32_t managers_of_into(NodeId target, std::uint32_t n,
                               std::uint32_t m, std::uint64_t seed,
                               std::vector<std::uint32_t>& index_scratch,
                               NodeId* out);

/// Lazily-materialized manager assignment for a whole deployment, indexed
/// densely by target id. The *base* assignment is a pure function of
/// (n, m, seed), so one instance is shared by every agent of an experiment
/// — the per-blame manager lookup is an array read instead of a hash plus
/// a fresh O(m) sample.
///
/// Manager handoff (DESIGN.md §7): the table additionally tracks churn
/// among the base pool through an ordered log of departures/returns
/// (`mark_departed` / `mark_returned`, driven by the Experiment after the
/// handoff delay). When a departed node sits in a target's manager row, it
/// is replaced by the next eligible candidate from a per-target
/// deterministic handoff stream — the same shared-hash idea as the base
/// assignment, so every participant derives the same replacement from
/// (target, seed, departure history). Rows materialized after churn replay
/// the log against a reconstructed prefix mask, so WHEN a row is first
/// looked at can never change WHAT it contains — measurement code may
/// materialize rows early without perturbing outcomes. Promotions are
/// sticky: a manager that departs and later returns does not demote its
/// replacement (it becomes an eligible candidate again, nothing more).
class ManagerAssignment {
 public:
  ManagerAssignment(std::uint32_t n, std::uint32_t m, std::uint64_t seed)
      : n_(n),
        m_(m),
        seed_(seed),
        flat_(static_cast<std::size_t>(n) * m),
        len_(n, 0),
        ready_(n, 0) {}

  /// Re-targets the table at a (possibly) different deployment, always
  /// clearing handoff state (churn log, promotions, handoff rngs) and
  /// dropping joiner rows (ids >= n re-derive at their next join; keeping
  /// them would let the first-churn bootstrap see rows for nodes that do
  /// not exist yet this run). When (n, m, seed) are unchanged the base
  /// rows untouched by promotions stay valid — the base assignment is a
  /// pure function of the triple. Otherwise every row is invalidated in
  /// place and refilled lazily, keeping the outer table storage
  /// (Experiment::reset).
  void rebind(std::uint32_t n, std::uint32_t m, std::uint64_t seed);

  /// The current M managers of `target`: the base assignment with every
  /// handoff promotion logged so far applied. The returned view is stable
  /// until the next promotion touching the row or the next joiner-row
  /// growth (same lifetime callers already respected when rows were heap
  /// vectors — consume the row before the table can mutate).
  [[nodiscard]] std::span<const NodeId> of(NodeId target);

  /// One executed promotion: `departed` left `target`'s quorum and
  /// `replacement` took its slot (and should adopt its ledger row).
  struct Handoff {
    NodeId target;
    NodeId departed;
    NodeId replacement;
  };

  /// Registers a base-pool departure in the churn log and promotes a
  /// replacement in every *materialized* row containing `id`. Returns those
  /// promotions so the caller can migrate ledger rows; rows materialized
  /// later replay the log internally (they never held ledger state, so
  /// there is nothing to migrate for them). No-op (empty result) when the
  /// node is already marked departed.
  std::vector<Handoff> mark_departed(NodeId id);

  /// Registers a rejoin: `id` becomes an eligible replacement candidate
  /// again. Promotions that already happened stay (handoff is sticky).
  void mark_returned(NodeId id);

  [[nodiscard]] bool departed(NodeId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    return v < departed_mask_.size() && departed_mask_[v] != 0;
  }

  /// Total promotions executed (eager and replayed) — the bench's
  /// "handoff count".
  [[nodiscard]] std::uint64_t promotions() const noexcept {
    return promotions_;
  }

 private:
  struct ChurnEvent {
    NodeId node;
    bool returned;  // false = departed, true = returned
  };

  /// Fills row `v` with the base assignment and replays the full churn log
  /// against a reconstructed prefix mask (scratch_mask_), so a late
  /// materialization reproduces exactly the promotions an early one would
  /// have received incrementally.
  void materialize(std::size_t v);
  /// Replaces `departed` in row `v` with the next eligible candidate from
  /// the target's handoff stream and returns it; returns kNoReplacement
  /// when `departed` is not in the row (already replaced) or no eligible
  /// candidate exists (the slot is dropped and the quorum shrinks).
  /// `is_departed(candidate)` must answer against the mask valid at this
  /// log position.
  static constexpr NodeId kNoReplacement{0xFFFFFFFFU};
  template <typename DepartedFn>
  NodeId promote(std::size_t v, NodeId departed,
                 const DepartedFn& is_departed);
  [[nodiscard]] Pcg32& handoff_rng(std::uint32_t target);

  /// Grows flat_/len_/ready_ to cover row `v` (churn joiners beyond the
  /// base pool).
  void ensure_row(std::size_t v);
  [[nodiscard]] NodeId* row_data(std::size_t v) noexcept {
    return flat_.data() + v * m_;
  }
  [[nodiscard]] std::span<NodeId> row(std::size_t v) noexcept {
    return {row_data(v), len_[v]};
  }

  std::uint32_t n_;
  std::uint32_t m_;
  std::uint64_t seed_;
  /// Row storage, structure-of-arrays: one flat m_-strided buffer plus a
  /// per-row length (rows shrink when a handoff finds no eligible
  /// replacement). One allocation for the whole deployment instead of one
  /// heap vector per node — at 10^6 nodes the per-row vector headers and
  /// allocator slack alone cost more than the manager ids.
  std::vector<NodeId> flat_;
  std::vector<std::uint32_t> len_;
  std::vector<std::uint8_t> ready_;
  std::vector<std::uint32_t> sample_scratch_;  // managers_of_into k-subset

  // ---- handoff state (cleared by rebind)
  std::vector<ChurnEvent> churn_log_;
  std::vector<std::uint8_t> departed_mask_;  // current, dense by id
  /// manager id -> target ids whose materialized row contains it (append-
  /// only; entries go stale when the manager is replaced and are verified
  /// against the row before use). Sized by base pool: only [0, n) ids can
  /// ever be managers.
  std::vector<std::vector<std::uint32_t>> reverse_;
  /// Per-target handoff stream, created on first promotion (flat map —
  /// promotions are rare relative to rows).
  std::vector<std::pair<std::uint32_t, Pcg32>> handoff_rngs_;
  std::vector<std::uint32_t> promoted_rows_;  // rows to invalidate on rebind
  std::vector<std::uint8_t> scratch_mask_;    // replay prefix mask
  std::uint64_t promotions_ = 0;
};

/// Per-node manager state: the blame ledger for the nodes this node
/// manages, with loss compensation applied at read time (§6.2): the
/// normalized score after r periods is
///   s = (r·b̃ - Σ blames) / r
/// which has zero mean for honest nodes. A-posteriori-check blames are
/// compensated by Eq. 4 when they arrive (audits are sporadic — §6.2).
///
/// Churn support (DESIGN.md §7): a row can be handed off to a replacement
/// manager (`take_record` / `adopt_record` — the blame total moves exactly
/// once) and a rejoining target can restart its score history
/// (`begin_incarnation` — blame cleared, score periods counted from the
/// rejoin instant via a per-record genesis override).
class ManagerStore {
 public:
  ManagerStore(const LiftingParams& params, TimePoint genesis)
      : period_(params.period),
        genesis_(genesis),
        per_period_compensation_(params.compensation_factor *
                                 analysis::expected_wrongful_blame(
                                     params.model())),
        apcc_compensation_(params.compensation_factor *
                           analysis::expected_blame_apcc(
                               params.model(), params.history_periods())) {}

  /// Applies a blame. Rate-check and a-posteriori blames carry their own
  /// compensation; regular verification blames are compensated per period
  /// at read time.
  void apply_blame(NodeId target, double value, gossip::BlameReason reason) {
    auto& rec = record(target);
    if (reason == gossip::BlameReason::kAposterioriCheck) {
      // Eq. 4: subtract the expected loss-induced unconfirmed entries.
      rec.blame_total += value - apcc_compensation_;
    } else {
      rec.blame_total += value;
    }
  }

  /// Normalized, compensated score of `target` at time `now`. The period
  /// count r runs from this manager's genesis unless the target's record
  /// carries an incarnation override (a rejoiner restarting fresh).
  [[nodiscard]] double normalized_score(NodeId target, TimePoint now) const {
    const Record* rec = find_record(target);
    const double r = periods_since(
        rec != nullptr && rec->has_genesis ? rec->genesis : genesis_, now);
    const double blames = rec == nullptr ? 0.0 : rec->blame_total;
    return (r * per_period_compensation_ - blames) / r;
  }

  /// Number of gossip periods the target has spent in the system (>= 1).
  [[nodiscard]] double periods_in_system(TimePoint now) const {
    return periods_since(genesis_, now);
  }

  [[nodiscard]] bool expelled(NodeId target) const {
    const Record* rec = find_record(target);
    return rec != nullptr && rec->expelled;
  }
  /// Marks the target expelled. Returns true on the first transition.
  bool mark_expelled(NodeId target) {
    auto& rec = record(target);
    const bool first = !rec.expelled;
    rec.expelled = true;
    return first;
  }

  /// A ledger row in transit between managers (handoff migration).
  struct MigratedRecord {
    double blame_total = 0.0;
    bool expelled = false;
    bool has_genesis = false;
    TimePoint genesis{};
    bool valid = false;  ///< false: the source never held a row
  };

  /// Extracts and *zeroes* the target's row — the departing manager's half
  /// of a handoff. Calling it again returns {valid = false}, which is what
  /// makes "migrated exactly once" checkable.
  MigratedRecord take_record(NodeId target) {
    Record* rec = find_mutable(target);
    if (rec == nullptr || (!rec->has_genesis && rec->blame_total == 0.0 &&
                           !rec->expelled)) {
      return {};
    }
    MigratedRecord out{rec->blame_total, rec->expelled, rec->has_genesis,
                       rec->genesis, true};
    *rec = Record{};
    return out;
  }

  /// Merges a migrated row into this store — the replacement manager's
  /// half of a handoff. Blame accumulates on top of anything already
  /// routed here since the promotion.
  void adopt_record(NodeId target, const MigratedRecord& migrated) {
    if (!migrated.valid) return;
    auto& rec = record(target);
    rec.blame_total += migrated.blame_total;
    rec.expelled = rec.expelled || migrated.expelled;
    if (migrated.has_genesis && !rec.has_genesis) {
      rec.has_genesis = true;
      rec.genesis = migrated.genesis;
    }
  }

  /// Moves every non-empty row into `dest` — the carried-store rejoin path
  /// (ScenarioConfig::carried_manager_store): this store belongs to the
  /// departed incarnation, `dest` to the returning one. Rows without a
  /// per-incarnation genesis override are stamped with THIS store's genesis
  /// first: the blame they hold accrued against it, and adopting them into
  /// a store whose genesis is the rejoin instant would silently shrink
  /// every target's period count to ~1 (a score cliff for everyone the
  /// returning manager judges). Source rows are zeroed by the move, so a
  /// row carries at most once. Returns the number of rows moved.
  std::size_t carry_into(ManagerStore& dest) {
    std::size_t moved = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      Record& rec = recs_[i];
      if (!rec.has_genesis && rec.blame_total == 0.0 && !rec.expelled) {
        continue;  // empty row: nothing to conserve
      }
      const MigratedRecord out{rec.blame_total, rec.expelled, true,
                               rec.has_genesis ? rec.genesis : genesis_, true};
      rec = Record{};
      dest.adopt_record(keys_[i], out);
      ++moved;
    }
    return moved;
  }

  /// Restarts the target's score history at `now` (rejoin with the fresh
  /// score policy): blame forgotten, period count restarted. The expulsion
  /// mark survives — an indictment is not erased by leaving and returning.
  void begin_incarnation(NodeId target, TimePoint now) {
    auto& rec = record(target);
    rec.blame_total = 0.0;
    rec.has_genesis = true;
    rec.genesis = now;
  }

  [[nodiscard]] double raw_blame_total(NodeId target) const {
    const Record* rec = find_record(target);
    return rec == nullptr ? 0.0 : rec->blame_total;
  }
  [[nodiscard]] double per_period_compensation() const noexcept {
    return per_period_compensation_;
  }
  /// Targets this store holds a row for.
  [[nodiscard]] std::size_t rows() const noexcept { return keys_.size(); }
  /// Bytes of the pool blocks the record table holds (the memory layer
  /// table).
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return held_bytes(keys_) + held_bytes(recs_);
  }

 private:
  struct Record {
    double blame_total = 0.0;
    bool expelled = false;
    bool has_genesis = false;  ///< per-incarnation genesis override set?
    TimePoint genesis{};
  };

  [[nodiscard]] double periods_since(TimePoint genesis, TimePoint now) const {
    const auto age = now - genesis;
    const double r = static_cast<double>(age / period_);
    return r < 1.0 ? 1.0 : r;
  }

  /// A node manages ~M targets, so the record table is a small flat map:
  /// a linear scan over contiguous keys beats hashing at this size and
  /// keeps the per-blame path allocation- and hash-free.
  [[nodiscard]] const Record* find_record(NodeId target) const noexcept {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == target) return &recs_[i];
    }
    return nullptr;
  }
  [[nodiscard]] Record* find_mutable(NodeId target) noexcept {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == target) return &recs_[i];
    }
    return nullptr;
  }
  [[nodiscard]] Record& record(NodeId target) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == target) return recs_[i];
    }
    keys_.push_back(target);
    recs_.emplace_back();
    return recs_.back();
  }

  /// Only the gossip period survives from LiftingParams — copying the whole
  /// parameter block into every one of n stores wasted ~200 B/node for two
  /// derived doubles and one Duration.
  Duration period_;
  TimePoint genesis_;
  double per_period_compensation_;
  double apcc_compensation_;
  /// Rows appear on a target's first blame or vote, so a store holds only
  /// the targets it has judged (~Poisson(M) of them, not a pre-sized 2·M).
  /// Growth takes its blocks from the block pool, so a reset lane's stores
  /// re-take the blocks the previous run's stores released.
  RecycledVector<NodeId> keys_;
  RecycledVector<Record> recs_;
};

}  // namespace lifting

#endif  // LIFTING_LIFTING_MANAGERS_HPP
