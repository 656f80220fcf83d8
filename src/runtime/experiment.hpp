#ifndef LIFTING_RUNTIME_EXPERIMENT_HPP
#define LIFTING_RUNTIME_EXPERIMENT_HPP

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/controller.hpp"
#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "gossip/engine.hpp"
#include "gossip/mailer.hpp"
#include "gossip/playback.hpp"
#include "gossip/stream_source.hpp"
#include "lifting/agent.hpp"
#include "membership/directory.hpp"
#include "membership/rps.hpp"
#include "obs/trace.hpp"
#include "runtime/node_stack.hpp"
#include "runtime/scenario.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

/// Builds and runs a full deployment from a ScenarioConfig: simulator,
/// lossy network, membership, one NodeStack (gossip engine + LiFTinG agent)
/// per node, a stream source at node 0, expulsion propagation, and all the
/// measurement hooks the benches and tests need (score snapshots, detection
/// statistics, health curves, bandwidth accounting, ground-truth ledger).

namespace lifting::obs {
class Registry;
}  // namespace lifting::obs

namespace lifting::runtime {

/// Ground-truth record of every blame emission (message-loss-free), for
/// analysis and tests; the managers' (lossy) view is measured separately.
/// Node ids are dense, so the ledger is a flat per-node table — recording a
/// blame is two array adds, with no hashing on the emission path.
class BlameLedger {
 public:
  void record(NodeId target, double value, gossip::BlameReason reason) {
    const auto v = static_cast<std::size_t>(target.value());
    if (v >= totals_.size()) {
      totals_.resize(v + 1, 0.0);
      by_reason_.resize(v + 1);
    }
    totals_[v] += value;
    by_reason_[v][static_cast<std::size_t>(reason)] += value;
    ++emissions_;
  }
  [[nodiscard]] double total(NodeId target) const {
    const auto v = static_cast<std::size_t>(target.value());
    return v < totals_.size() ? totals_[v] : 0.0;
  }
  [[nodiscard]] double total(NodeId target, gossip::BlameReason reason) const {
    const auto v = static_cast<std::size_t>(target.value());
    if (v >= by_reason_.size()) return 0.0;
    return by_reason_[v][static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] std::uint64_t emissions() const noexcept { return emissions_; }

  /// Pre-sizes the per-node tables for a known population, so the ledger
  /// never reallocates during a run (joiners beyond `n` still grow it).
  /// The ledger is already epoch-compacted by construction: it keeps one
  /// running total (plus per-reason totals) per node — O(population) —
  /// instead of the emission log, which grows with time.
  void reserve(std::uint32_t n) {
    totals_.reserve(n);
    by_reason_.reserve(n);
  }

  /// Forgets all recorded blame, keeping table capacity.
  void reset() noexcept {
    totals_.clear();
    by_reason_.clear();
    emissions_ = 0;
  }

 private:
  using ReasonTotals = std::array<double, gossip::kBlameReasonCount>;
  std::vector<double> totals_;
  std::vector<ReasonTotals> by_reason_;  // zero-initialized on resize
  std::uint64_t emissions_ = 0;
};

struct ExpulsionRecord {
  NodeId victim;
  double at_seconds = 0.0;
  bool from_audit = false;
  bool was_freerider = false;
};

/// Ground-truth churn records (timeline-driven joins and departures).
struct JoinRecord {
  NodeId node;
  double at_seconds = 0.0;
  bool freerider = false;
};
struct DepartureRecord {
  NodeId node;
  double at_seconds = 0.0;
  bool crashed = false;  // abrupt (failure detector lag) vs. clean leave
  bool was_freerider = false;
};
struct RejoinRecord {
  NodeId node;
  double at_seconds = 0.0;
  std::uint32_t epoch = 0;  // the new incarnation's alive epoch (>= 2)
  bool freerider = false;
};

/// One executed manager handoff: `departed` left `target`'s quorum and
/// `replacement` adopted its ledger row (migrated exactly once — the
/// departing store is zeroed by the move).
struct HandoffRecord {
  NodeId target;
  NodeId departed;
  NodeId replacement;
  std::uint32_t departed_epoch = 0;  // incarnation that departed
  double at_seconds = 0.0;
  bool migrated = false;  // false: the departing manager held no row yet
  /// The manager left the quorum by *expulsion*, not departure (the
  /// expulsion-handoff extension, DESIGN.md §7).
  bool expelled = false;
};

/// Quorum health over the current manager assignment: how many managers of
/// each live non-source node are themselves still present.
struct QuorumStats {
  double mean = 0.0;
  std::size_t min = 0;
  std::size_t targets = 0;
};

/// Ledger blame against honest nodes, split by churn role — leavers accrue
/// wrongful blame (a crashed partner looks like a δ1 freerider to its
/// verifiers) that must not be conflated with the loss-induced blame
/// against stayers, and rejoiners additionally absorb the divergent-view
/// window around each of their transitions.
struct HonestBlameSplit {
  double stayer_total = 0.0;
  double leaver_total = 0.0;
  double rejoiner_total = 0.0;
  std::size_t stayers = 0;
  std::size_t leavers = 0;
  std::size_t rejoiners = 0;  // rejoined and currently present
  [[nodiscard]] double stayer_mean() const {
    return stayers == 0 ? 0.0 : stayer_total / static_cast<double>(stayers);
  }
  [[nodiscard]] double leaver_mean() const {
    return leavers == 0 ? 0.0 : leaver_total / static_cast<double>(leavers);
  }
  [[nodiscard]] double rejoiner_mean() const {
    return rejoiners == 0 ? 0.0
                          : rejoiner_total / static_cast<double>(rejoiners);
  }
};

/// Detection outcome over a score snapshot at a threshold η.
struct DetectionStats {
  double detection = 0.0;        // fraction of freeriders below η (or expelled)
  double false_positive = 0.0;   // fraction of honest nodes below η (or expelled)
  std::size_t freeriders = 0;
  std::size_t honest = 0;
};

/// Bandwidth accounting (Table 5).
struct OverheadReport {
  // Each field sums one gossip::KindClass of the Mailer's tally.
  std::uint64_t dissemination_bytes = 0;  // propose + request + serve
  std::uint64_t verification_bytes = 0;   // ack + confirm + blame + score + expel
  // §5.3 audit kinds + audit_ack: TCP-framed, or datagrams under the
  // reliable-UDP audit channel.
  std::uint64_t audit_bytes = 0;
  [[nodiscard]] double verification_ratio() const {
    return dissemination_bytes == 0
               ? 0.0
               : static_cast<double>(verification_bytes) /
                     static_cast<double>(dissemination_bytes);
  }
};

class Experiment {
 public:
  explicit Experiment(ScenarioConfig config);

  /// Rewinds the built deployment and rebuilds it for `config` — the
  /// cheap-repetition path for Monte-Carlo sweeps. Outcomes are
  /// bit-identical to constructing a fresh Experiment(config) (asserted by
  /// tests/test_parallel_runner.cpp), but the expensive substrate storage
  /// is reused instead of torn down and re-grown: the event-queue arena,
  /// the delivery pool, the dense per-node tables, the Mailer (its send
  /// tally zeroed) and — when (nodes, managers, seed) are unchanged — the
  /// shared ManagerAssignment table. Everything a fresh Experiment would
  /// not have is gone: measurement hooks like sample_scores_every() must
  /// be re-armed after every reset.
  void reset(ScenarioConfig config);
  /// Same-scenario repetition under a new seed (reset(config) with only
  /// the seed replaced). Note: a timeline embedded in the config was
  /// generated by the caller, typically from the old seed; regenerate it
  /// (use the full reset(config) overload) if it should track the seed.
  void reset(std::uint64_t seed);
  /// Repeats the identical scenario (same config, same seed).
  void reset() { reset(config_.seed); }

  /// Runs to the configured duration.
  void run();
  /// Runs up to `t` (absolute simulation time); resumable. Timeline events
  /// are ordinary simulator events, so checkpoint boundaries never change
  /// outcomes (tests/test_runtime_timeline.cpp).
  void run_until(TimePoint t);

  /// Stops all periodic activity (source, engines, agents, samplers,
  /// pending timeline events) and drains the event queue: every in-flight
  /// delivery lands or is dropped and every one-shot timer fizzles. After
  /// this, `network_stats` is final and the delivery pool is empty — the
  /// leak invariant asserted by tests/test_scenario_sweep.cpp.
  void wind_down();

  // ---- structure
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] sim::Network<gossip::Message>& network() noexcept {
    return *network_;
  }
  [[nodiscard]] membership::Directory& directory() noexcept {
    return directory_;
  }
  /// The RPS substrate (DESIGN.md §12), or null when
  /// membership.rps_partner_sampling is off — the inert default.
  [[nodiscard]] const membership::RpsNetwork* rps() const noexcept {
    return rps_.get();
  }
  [[nodiscard]] const ScenarioConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] NodeId source() const noexcept { return NodeId{0}; }
  [[nodiscard]] gossip::Engine& engine(NodeId id) {
    return nodes_.at(id.value()).engine();
  }
  [[nodiscard]] lifting::Agent& agent(NodeId id) {
    return *nodes_.at(id.value()).agent();
  }
  [[nodiscard]] bool has_agents() const noexcept {
    return config_.lifting_enabled;
  }
  [[nodiscard]] bool is_freerider(NodeId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    return v < freerider_.size() && freerider_[v];
  }
  [[nodiscard]] bool is_weak(NodeId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    return v < weak_.size() && weak_[v];
  }
  [[nodiscard]] const std::vector<NodeId>& freerider_ids() const noexcept {
    return freerider_list_;
  }
  /// The freerider ids a fresh Experiment over (seed, nodes, fraction)
  /// would flag (sorted), derivable without building one — the role
  /// assignment is a pure function of the triple. The ONE source of that
  /// derivation: scenario builders that need the roles up front (e.g.
  /// adversary_frontier_config's honest-departure burst) must call this
  /// instead of re-implementing the stream.
  [[nodiscard]] static std::vector<NodeId> derive_freerider_ids(
      std::uint64_t seed, std::uint32_t nodes, double fraction);

  // ---- dynamic membership
  /// Every id ever part of the deployment (initial population + joiners);
  /// ids are never recycled, so this is also the dense table bound.
  [[nodiscard]] std::uint32_t population() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] bool is_departed(NodeId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    return v < departed_.size() && departed_[v];
  }
  [[nodiscard]] const std::vector<JoinRecord>& joins() const noexcept {
    return joins_;
  }
  [[nodiscard]] const std::vector<DepartureRecord>& departures()
      const noexcept {
    return departures_;
  }
  [[nodiscard]] const std::vector<RejoinRecord>& rejoins() const noexcept {
    return rejoins_;
  }
  /// Has `id` ever re-entered after a departure (any incarnation)?
  [[nodiscard]] bool ever_rejoined(NodeId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    return v < ever_rejoined_.size() && ever_rejoined_[v] != 0;
  }
  [[nodiscard]] HonestBlameSplit honest_blame_split() const;

  // ---- manager handoff (DESIGN.md §7)
  /// Handoffs executed so far, in execution order. Handoffs for rows the
  /// assignment materializes later (no ledger state to migrate) are
  /// counted by the assignment's promotion counter instead.
  [[nodiscard]] const std::vector<HandoffRecord>& handoffs() const noexcept {
    return handoffs_;
  }
  /// Total promotions (the bench's handoff count). Measurement-
  /// independent: every row is materialized at a protocol-defined instant
  /// (base rows when churn starts, joiner rows at join), so the counter is
  /// a property of the run, not of who looked at which row when.
  [[nodiscard]] std::uint64_t handoff_promotions() const noexcept;
  /// Present-manager quorum over every live non-source node. A manager
  /// counts as present only while it is neither churn-departed nor expelled
  /// from the membership (an indicted manager is not a working quorum
  /// member, whether or not expulsion_handoff replaced it). Outcome-
  /// neutral (rows are already materialized and the replay contract covers
  /// stragglers) — safe to call mid-run for quorum-over-time curves.
  [[nodiscard]] QuorumStats quorum_stats();

  /// Has an expulsion of `id` been applied to the membership (committed
  /// AND propagated)? The latched commit alone (majority_expelled) does
  /// not yet vacate the manager role.
  [[nodiscard]] bool is_expelled_member(NodeId id) const {
    const auto v = static_cast<std::size_t>(id.value());
    return v < expelled_applied_.size() && expelled_applied_[v] != 0;
  }

  // ---- adaptive adversaries (src/adversary/, DESIGN.md §8)
  /// Aggregate over every adversary controller of the run, finalized at
  /// the current simulation time. mean_realized_gain is the adaptive
  /// analogue of Fig. 12's bandwidth gain: BehaviorSpec::gain() integrated
  /// over each adversary's present time.
  struct AdversaryStats {
    std::size_t adversaries = 0;
    double mean_realized_gain = 0.0;
    double mean_present_fraction = 0.0;  // of elapsed simulation time
    std::uint64_t behavior_switches = 0;
    std::uint64_t probes = 0;
    std::uint64_t bounces = 0;
  };
  [[nodiscard]] AdversaryStats adversary_stats();
  /// The controller steering `id`, or null (honest node, or no strategy
  /// configured). For tests and measurement code.
  [[nodiscard]] adversary::AdversaryController* adversary_controller(
      NodeId id) {
    const auto v = static_cast<std::size_t>(id.value());
    return v < controllers_.size() ? controllers_[v].get() : nullptr;
  }

  // ---- measurements
  /// Min-vote score of `id` over its managers' (lossy) ledgers — exactly
  /// what a protocol-level read returns, obtained without messages.
  [[nodiscard]] double true_score(NodeId id);
  /// Is `id` marked expelled by a majority of its managers?
  [[nodiscard]] bool majority_expelled(NodeId id);
  /// Scores of all non-source nodes, split honest/freerider.
  struct ScoreSnapshot {
    std::vector<double> honest;
    std::vector<double> freeriders;
  };
  [[nodiscard]] ScoreSnapshot snapshot_scores();
  [[nodiscard]] DetectionStats detection_at(double eta);

  /// How periodic score samples are retained. kStream — the default — keeps
  /// one O(1) statistics summary per sample, so the timeline costs
  /// O(samples) regardless of population; kRetained additionally stores
  /// every node's score per sample in score_timeline() (O(nodes × samples),
  /// the classic mode for per-node trajectory plots).
  enum class ScoreSampleMode { kStream, kRetained };

  /// Enables periodic score sampling every `interval` (requires LiFTinG);
  /// each sample covers the then-live non-source population. Call before
  /// the first run_until().
  void sample_scores_every(Duration interval,
                           ScoreSampleMode mode = ScoreSampleMode::kStream);
  struct TimedScores {
    double at_seconds = 0.0;
    ScoreSnapshot scores;
  };
  /// Full per-sample score vectors; populated only in kRetained mode.
  [[nodiscard]] const std::vector<TimedScores>& score_timeline()
      const noexcept {
    return score_timeline_;
  }

  /// One streamed score sample: summary statistics only.
  struct ScoreSummary {
    double at_seconds = 0.0;
    std::size_t honest = 0;
    std::size_t freeriders = 0;
    double honest_mean = 0.0;
    double honest_min = 0.0;
    double freerider_mean = 0.0;
    double freerider_max = 0.0;
  };
  /// Populated in both sampling modes.
  [[nodiscard]] const std::vector<ScoreSummary>& score_summaries()
      const noexcept {
    return score_summaries_;
  }

  /// Health curve over honest nodes. Churn-aware: departed nodes are
  /// excluded (their logs froze mid-stream), and joiners are only counted
  /// once they were present for the whole judgeable window (join time
  /// before the playback warmup end) — otherwise every pre-join chunk
  /// would count against them.
  [[nodiscard]] std::vector<gossip::HealthPoint> health_curve(
      const std::vector<double>& lags_seconds, bool honest_only = true,
      const gossip::PlaybackConfig& playback = {});

  /// Arms the streaming health measurement — the O(nodes) mode for
  /// million-node runs. Every `fold_interval`, chunks whose judgment window
  /// has closed (emitted_at + max queried lag behind the clock) fold into
  /// per-(node, lag) on-time counters, and every delivery log drops the
  /// timestamps below the fold line (`DeliveryLog::compact_before`), so
  /// per-node delivery state is bounded by the fold horizon instead of the
  /// stream length. streamed_health_curve() then returns bit-identical
  /// values to health_curve(lags, honest_only, playback) over fully
  /// retained logs: folding is pure integer bookkeeping over the same
  /// on-time/eligible counts (asserted by tests/test_streamed_health.cpp).
  /// Fold events read logs and never touch any rng, so arming this cannot
  /// perturb fixed-seed outcomes. Call before the first run_until(); like
  /// sample_scores_every, it must be re-armed after reset().
  void enable_streamed_health(std::vector<double> lags_seconds,
                              bool honest_only,
                              const gossip::PlaybackConfig& playback,
                              Duration fold_interval);
  [[nodiscard]] std::vector<gossip::HealthPoint> streamed_health_curve();

  [[nodiscard]] OverheadReport overhead() const;
  /// Messages and modeled bytes sent so far, by kind (gossip::kind_index).
  [[nodiscard]] const gossip::SendTally& sent() const noexcept {
    return mailer_->sent();
  }

  /// Arms the flight recorder (DESIGN.md §13): a TraceRing of `capacity`
  /// records fed by every instrumented seam — engine phases, verifier
  /// verdicts, blame/ledger rows, score reads and expulsion ballots,
  /// manager handoffs, RPS merges, adversary ticks, injected faults.
  /// Recording is passive (no rng draws, no events), so armed fixed-seed
  /// runs stay bit-identical to disarmed ones; the disarmed default
  /// constructs and allocates nothing. A measurement hook like
  /// sample_scores_every: reset() drops the recorder, re-arm after it.
  void enable_trace(std::size_t capacity);
  /// The armed recorder, or null (disarmed).
  [[nodiscard]] obs::Recorder* trace() noexcept { return recorder_.get(); }
  /// The armed recorder's ring, or null (disarmed).
  [[nodiscard]] const obs::TraceRing* trace_ring() const noexcept {
    return recorder_ == nullptr ? nullptr : &recorder_->ring();
  }

  /// Folds every scattered counter family into one obs::Registry — wire
  /// stats (sim metrics), network/transport totals, engine duplicate
  /// counters, audit-channel delivery health, fault outcomes, the per-log
  /// page counts (mem.pages.*), ledger and expulsion tallies. Absolute
  /// totals (idempotent re-fold, not deltas).
  void collect_metrics(obs::Registry& out) const;
  [[nodiscard]] const sim::NetworkStats& network_stats() const {
    return network_->stats();
  }
  /// Transport fault-injection outcomes (src/faults/, DESIGN.md §11); all
  /// zero when the scenario's FaultPlan is empty.
  [[nodiscard]] const faults::FaultInjector::Stats& fault_stats() const {
    return injector_->stats();
  }
  /// Audit-channel delivery health summed over every live and retired
  /// agent (reliable-UDP mode; all zero under the modeled-TCP default).
  [[nodiscard]] lifting::Agent::AuditChannelStats audit_channel_totals() const {
    lifting::Agent::AuditChannelStats totals;
    for (const auto* pool : {&nodes_, &retired_}) {
      for (const auto& node : *pool) {
        if (const auto* agent = node.agent()) {
          totals += agent->audit_channel_totals();
        }
      }
    }
    return totals;
  }
  [[nodiscard]] const BlameLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] const std::vector<ExpulsionRecord>& expulsions()
      const noexcept {
    return expulsions_;
  }
  [[nodiscard]] const std::vector<gossip::ChunkMeta>& emitted_chunks()
      const noexcept {
    return source_->emitted();
  }
  [[nodiscard]] const std::vector<lifting::AuditReport>& audit_reports()
      const noexcept {
    return audit_reports_;
  }

 private:
  void build();
  /// Clears every per-run state table (keeping capacity) so build() can
  /// repopulate a reused deployment — the shared core of the constructor
  /// and the reset() path.
  void rewind();
  void on_expulsion_committed(NodeId victim, bool from_audit);

  // ---- timeline execution
  void apply_event(const ScenarioEvent& event);
  NodeId join_node(const ScenarioEvent& event);
  void retire_node(NodeId id, bool crash);
  void rejoin_node(NodeId id);
  /// Executes the delayed manager handoff for a departed node: registers
  /// the departure with the assignment and migrates ledger rows to the
  /// promoted replacements.
  void run_handoff(NodeId id);
  /// Same promotion + migration for a node whose expulsion was applied to
  /// the membership (expulsion_handoff, DESIGN.md §7). Shares the
  /// assignment's departed mask with the churn path, so the two can never
  /// migrate the same row twice.
  void run_expulsion_handoff(NodeId victim);
  /// Migrates the ledger rows of `executed` promotions and records them.
  void execute_handoffs(
      const std::vector<lifting::ManagerAssignment::Handoff>& executed,
      bool expelled);
  /// Builds and starts the adversary controller of freerider `id` (no-op
  /// unless a strategy is configured).
  void make_controller(NodeId id);
  /// Builds node `i`'s stack into its slot and attaches it to the network.
  void spawn_node(std::uint32_t i, const gossip::BehaviorSpec& behavior,
                  const sim::LinkProfile& profile);
  void set_freerider(NodeId id, bool freeride);
  /// Grows every dense per-node table to cover ids < `n`.
  void ensure_tables(std::uint32_t n);
  void schedule_score_sample();
  void schedule_rps_round();
  void schedule_health_fold();
  void fold_streamed_health();
  /// Fills an empty collusion coalition with the current freerider set.
  [[nodiscard]] gossip::BehaviorSpec resolve_behavior(
      gossip::BehaviorSpec spec) const;

  ScenarioConfig config_;
  Pcg32 rng_;
  sim::Simulator sim_;
  membership::Directory directory_;
  /// RPS substrate; constructed only when membership.rps_partner_sampling
  /// is on (null = bit-identical legacy partner selection).
  std::unique_ptr<membership::RpsNetwork> rps_;
  std::unique_ptr<sim::Network<gossip::Message>> network_;
  /// Transport stack under the Mailer: SimTransport over the network, the
  /// fault injector wrapped around it (pure passthrough on an empty plan).
  std::unique_ptr<net::SimTransport> transport_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<gossip::Mailer> mailer_;
  std::vector<NodeStack> nodes_;
  /// Flight recorder (enable_trace); null = disarmed, the inert default.
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<gossip::StreamSource> source_;
  std::shared_ptr<lifting::ManagerAssignment> assignment_;
  lifting::Agent::Hooks hooks_;

  // Dense per-node role/state tables, indexed by NodeId::value().
  std::vector<std::uint8_t> freerider_;
  std::vector<NodeId> freerider_list_;
  std::vector<std::uint8_t> weak_;
  std::vector<std::uint8_t> departed_;  // left/crashed through the timeline
  std::vector<TimePoint> join_time_;
  BlameLedger ledger_;
  std::vector<ExpulsionRecord> expulsions_;
  std::vector<std::uint8_t> expulsion_scheduled_;
  std::vector<std::uint8_t> expelled_applied_;  // expulsion reached membership
  std::vector<lifting::AuditReport> audit_reports_;

  // ---- adaptive adversaries (one controller per adversarial node; empty
  // vectors of nulls when no strategy is configured — the inert default)
  std::vector<std::unique_ptr<adversary::AdversaryController>> controllers_;
  std::unique_ptr<adversary::CoalitionHub> coalition_hub_;

  // ---- churn bookkeeping
  std::vector<ScenarioEvent> timeline_events_;  // time-ordered
  std::vector<JoinRecord> joins_;
  std::vector<DepartureRecord> departures_;
  std::vector<RejoinRecord> rejoins_;
  std::vector<HandoffRecord> handoffs_;
  std::vector<std::uint8_t> ever_rejoined_;  // dense, any incarnation
  /// Retired incarnations of rejoined ids: the old stack's objects must
  /// outlive any in-flight timer that still references them, so a rejoin
  /// moves them here instead of destroying them (same in-place retirement
  /// contract as plain departures, DESIGN.md §5/§7).
  std::vector<NodeStack> retired_;
  std::uint32_t next_join_id_ = 0;

  Duration score_sample_interval_ = Duration::zero();
  ScoreSampleMode score_sample_mode_ = ScoreSampleMode::kStream;
  std::vector<TimedScores> score_timeline_;
  std::vector<ScoreSummary> score_summaries_;

  /// Streaming health state (enable_streamed_health).
  struct StreamedHealth {
    bool enabled = false;
    std::vector<double> lags_seconds;
    bool honest_only = true;
    gossip::PlaybackConfig playback;
    Duration fold_interval = Duration::zero();
    /// Chunks fold once emitted_at + fold_horizon <= now: the largest
    /// queried lag (and the common window), so every lag's verdict on the
    /// chunk is final at fold time.
    Duration fold_horizon = Duration::zero();
    std::size_t folded_chunks = 0;      ///< judged prefix of the stream
    std::uint64_t folded_eligible = 0;  ///< warmup-passing folded chunks
    /// Per-(node, lag) on-time deliveries among folded chunks, node-major.
    std::vector<std::uint32_t> on_time;
  };
  StreamedHealth streamed_;

  bool started_ = false;
  bool wound_down_ = false;
};

}  // namespace lifting::runtime

#endif  // LIFTING_RUNTIME_EXPERIMENT_HPP
