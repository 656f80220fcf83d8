#include "runtime/experiment.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/assert.hpp"
#include "lifting/managers.hpp"
#include "obs/registry.hpp"

namespace lifting::runtime {

namespace {
/// Draws the freerider role set (sorted; never the source) from the role
/// stream. Shared by build() — whose weak-link picks continue the same
/// stream — and the standalone derive_freerider_ids().
[[nodiscard]] std::vector<NodeId> sample_freerider_roles(Pcg32& role_rng,
                                                         std::uint32_t n,
                                                         double fraction) {
  std::vector<NodeId> freeriders;
  const auto count =
      static_cast<std::uint32_t>(fraction * static_cast<double>(n));
  if (count > 0) {
    const auto picks = sample_k_distinct(role_rng, n - 1, count);
    freeriders.reserve(picks.size());
    for (const auto p : picks) {
      freeriders.push_back(NodeId{p + 1});  // skip the source (node 0)
    }
    std::sort(freeriders.begin(), freeriders.end());
  }
  return freeriders;
}
}  // namespace

std::vector<NodeId> Experiment::derive_freerider_ids(std::uint64_t seed,
                                                     std::uint32_t nodes,
                                                     double fraction) {
  auto role_rng = derive_rng(seed, 0x01);
  return sample_freerider_roles(role_rng, nodes, fraction);
}

Experiment::Experiment(ScenarioConfig config)
    : config_(std::move(config)),
      rng_(derive_rng(config_.seed, /*stream=*/0xE58)),
      directory_(config_.nodes) {
  config_.validate();
  build();
}

void Experiment::reset(ScenarioConfig config) {
  config_ = std::move(config);
  config_.validate();
  rewind();
  build();
}

void Experiment::reset(std::uint64_t seed) {
  auto cfg = config_;
  cfg.seed = seed;
  reset(std::move(cfg));
}

void Experiment::rewind() {
  sim_.reset();
  mailer_->clear_sent();
  directory_.reset(config_.nodes);
  rng_ = derive_rng(config_.seed, /*stream=*/0xE58);
  ledger_.reset();
  rps_.reset();
  // Measurement hook: re-arm enable_trace after reset. The injector is the
  // one traced component that survives rewinds, so disarm it before the
  // recorder dies under its pointer.
  if (injector_ != nullptr) injector_->set_trace(nullptr);
  recorder_.reset();
  expulsions_.clear();
  audit_reports_.clear();
  controllers_.clear();
  coalition_hub_.reset();
  joins_.clear();
  departures_.clear();
  rejoins_.clear();
  handoffs_.clear();
  retired_.clear();
  timeline_events_.clear();
  score_timeline_.clear();
  score_summaries_.clear();
  freerider_list_.clear();
  score_sample_interval_ = Duration::zero();
  score_sample_mode_ = ScoreSampleMode::kStream;
  streamed_ = StreamedHealth{};
  started_ = false;
  wound_down_ = false;
}

void Experiment::build() {
  const std::uint32_t n = config_.nodes;

  // --- assign roles: freeriders (never the source), weak links.
  freerider_.assign(n, 0);
  weak_.assign(n, 0);
  departed_.assign(n, 0);
  ever_rejoined_.assign(n, 0);
  expulsion_scheduled_.assign(n, 0);
  expelled_applied_.assign(n, 0);
  join_time_.assign(n, kSimEpoch);
  controllers_.resize(n);
  next_join_id_ = n;
  // Per-observer membership views (DESIGN.md §7): a zero lag (default)
  // collapses to the legacy shared view bit-for-bit.
  directory_.set_view_model(config_.view_propagation, config_.seed);
  auto role_rng = derive_rng(config_.seed, 0x01);
  freerider_list_ =
      sample_freerider_roles(role_rng, n, config_.freerider_fraction);
  for (const auto id : freerider_list_) freerider_[id.value()] = 1;
  // The weak-link picks continue the same role stream (order is
  // load-bearing for fixed-seed outcomes).
  const auto weak_count = static_cast<std::uint32_t>(
      config_.weak_fraction * static_cast<double>(n));
  if (weak_count > 0) {
    const auto picks = sample_k_distinct(role_rng, n - 1, weak_count);
    for (const auto p : picks) weak_[p + 1] = 1;
  }

  // --- network + mailer
  // The event arena is not pre-sized: it grows in address-stable chunks as
  // the in-flight population builds up over the first periods.
  ledger_.reserve(n);
  if (network_ == nullptr) {
    network_ = std::make_unique<sim::Network<gossip::Message>>(
        sim_, derive_rng(config_.seed, 0x02));
    // Transport stack: SimTransport over the network, the fault injector
    // around it, the Mailer on top. With an empty FaultPlan (the default)
    // the injector is a pure passthrough — no rng streams exist, no draws
    // happen — so this stack is bit-identical to the historical
    // Mailer-over-network wiring (test_determinism pins it).
    transport_ = std::make_unique<net::SimTransport>(*network_);
    injector_ =
        std::make_unique<faults::FaultInjector>(*transport_, sim_, config_.seed);
    mailer_ = std::make_unique<gossip::Mailer>(*injector_);
  } else {
    // Reset path: same network object (the Mailer's reference stays
    // valid), fresh endpoints and statistics, reused delivery pool.
    network_->reset(derive_rng(config_.seed, 0x02));
    injector_->reset(config_.seed);
  }
  injector_->set_plan(config_.faults);
  // Reliable-UDP audits travel as real datagrams, so the Mailer prices
  // them with the exact datagram model instead of TCP framing.
  mailer_->set_datagram_audit_pricing(
      config_.lifting_enabled &&
      config_.lifting.audit_channel == LiftingParams::AuditChannel::kReliableUdp);

  hooks_.on_blame_emitted = [this](NodeId by, NodeId target, double value,
                                   gossip::BlameReason reason) {
    // Ground truth reclassifies blame against already-departed targets:
    // the emission is real (the wire message carries `reason`), but the
    // target's "freeriding" was death — see HonestBlameSplit.
    const auto effective = is_departed(target)
                               ? gossip::BlameReason::kPostDeparture
                               : reason;
    ledger_.record(target, value, effective);
    if (recorder_ != nullptr) {
      recorder_->record(obs::EventKind::kBlameLedger, by, target, 0, value,
                        static_cast<std::uint8_t>(effective));
    }
  };
  hooks_.on_expulsion_committed = [this](NodeId victim, NodeId /*manager*/,
                                         bool from_audit) {
    on_expulsion_committed(victim, from_audit);
  };
  hooks_.on_audit_report = [this](NodeId /*auditor*/,
                                  const lifting::AuditReport& report) {
    audit_reports_.push_back(report);
  };

  // One deployment-wide manager table shared by every agent — the
  // assignment is a pure function of (n, M, seed); joiners extend it
  // lazily, drawing their managers from the base pool [0, n). On reset the
  // table rebinds in place (a no-op when (n, M, seed) are unchanged).
  if (assignment_ == nullptr) {
    assignment_ = std::make_shared<lifting::ManagerAssignment>(
        n, config_.lifting.managers, config_.seed);
  } else {
    assignment_->rebind(n, config_.lifting.managers, config_.seed);
  }

  // --- membership substrate (RPS, DESIGN.md §12). Guarded so the default
  // constructs nothing and draws no rng stream — the fixed-seed goldens pin
  // that inertness, exactly like the adversary block below.
  if (config_.membership.rps_partner_sampling) {
    rps_ = std::make_unique<membership::RpsNetwork>(
        n, config_.membership.view_size, config_.membership.shuffle_length,
        config_.seed, config_.membership.sampler);
    if (config_.membership.attack.enabled()) {
      rps_->set_adversary(config_.membership.attack, freerider_list_);
    }
    // Warm-up: views must be mixed (and, with an armed attack, poisoned)
    // before the first partner draw.
    rps_->run_rounds(config_.membership.bootstrap_rounds);
  }

  network_->reserve_nodes(n);
  nodes_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id{i};
    const auto behavior = is_freerider(id)
                              ? resolve_behavior(config_.freerider_behavior)
                              : gossip::BehaviorSpec::honest();
    spawn_node(i, behavior, weak_[i] != 0 ? config_.weak_link : config_.link);
  }

  // --- stream source at node 0
  source_ = std::make_unique<gossip::StreamSource>(sim_, nodes_[0].engine(),
                                                   config_.stream);

  // --- adaptive adversaries (DESIGN.md §8). Guarded so the default
  // (Strategy::kNone) constructs nothing, draws nothing and schedules
  // nothing — the fixed-seed goldens pin that inertness.
  if (config_.adversary.enabled()) {
    if (config_.adversary.strategy == adversary::Strategy::kCoalition) {
      coalition_hub_ = std::make_unique<adversary::CoalitionHub>();
    }
    for (const auto id : freerider_list_) make_controller(id);
  }
}

void Experiment::make_controller(NodeId id) {
  if (!config_.adversary.enabled()) return;
  const auto v = static_cast<std::size_t>(id.value());
  adversary::AdversaryController::Hooks hooks;
  // Behavior mutation rides the same set_behavior machinery as timeline
  // kSetBehavior events (engine + agent), but never touches the freerider
  // role flag: an adversary playing nice is still ground-truth adversarial
  // for the detection statistics.
  hooks.apply_behavior = [this, v](const gossip::BehaviorSpec& spec) {
    if (is_departed(NodeId{static_cast<std::uint32_t>(v)})) return;
    nodes_[v].set_behavior(spec);
  };
  if (config_.lifting_enabled) {
    // Manager score-feedback channel: a real §5.1 read about ourselves,
    // through whatever agent incarnation currently occupies the slot.
    hooks.probe_score = [this, id, v](adversary::ScoreEstimateFn on_done) {
      auto* agent = nodes_[v].agent();
      if (agent == nullptr) {
        on_done(adversary::ScoreEstimate{});
        return;
      }
      agent->probe_score(
          id, [cb = std::move(on_done)](const lifting::Agent::ScoreFeedback&
                                            feedback) {
            cb(adversary::ScoreEstimate{feedback.score, feedback.replies,
                                        feedback.expelled_hint});
          });
    };
  }
  hooks.leave = [this, id] {
    if (!wound_down_) retire_node(id, /*crash=*/false);
  };
  hooks.rejoin = [this, id] {
    if (!wound_down_) rejoin_node(id);
  };
  hooks.present = [this, id] {
    return !is_departed(id) && directory_.is_live(id);
  };
  hooks.sees = [this, id](NodeId subject) {
    return directory_.sees(id, subject, sim_.now());
  };
  // Controller rng streams live in their own 2^32-wide base (0xC...), like
  // the agents' 0xA and engines' 0xB bases; the stream exists only when a
  // strategy is configured, so unconfigured runs draw nothing.
  controllers_[v] = std::make_unique<adversary::AdversaryController>(
      sim_, id, config_.adversary,
      resolve_behavior(config_.freerider_behavior), config_.lifting.eta,
      derive_rng(config_.seed, 0xC00000000ULL + v), std::move(hooks),
      coalition_hub_.get());
  if (recorder_ != nullptr) controllers_[v]->set_trace(recorder_.get());
  controllers_[v]->start();
}

gossip::BehaviorSpec Experiment::resolve_behavior(
    gossip::BehaviorSpec spec) const {
  if (spec.collusion.has_value() && spec.collusion->coalition.empty()) {
    spec.collusion->coalition = freerider_list_;
  }
  return spec;
}

void Experiment::spawn_node(std::uint32_t i,
                            const gossip::BehaviorSpec& behavior,
                            const sim::LinkProfile& profile) {
  const NodeId id{i};
  nodes_[i] = NodeStack(sim_, *mailer_, directory_, config_, id, behavior,
                        assignment_, hooks_, rps_.get(), recorder_.get());
  network_->add_node(id, profile,
                     [this, i](const sim::Delivery<gossip::Message>& d) {
                       nodes_[i].handle(d.from, d.payload);
                     });
}

void Experiment::run_until(TimePoint t) {
  if (!started_) {
    started_ = true;
    for (std::uint32_t i = 0; i < config_.nodes; ++i) {
      nodes_[i].start(draw_start_offset(rng_, config_.gossip.period));
    }
    source_->start();
    // Timeline events become ordinary simulator events. Scheduling them in
    // stable time order means equal timestamps apply in insertion order
    // (the queue's (time, insertion-seq) total order), and run_until
    // checkpoints cannot observe event boundaries.
    timeline_events_ = config_.timeline.ordered();
    for (std::size_t i = 0; i < timeline_events_.size(); ++i) {
      sim_.schedule_at(kSimEpoch + timeline_events_[i].at,
                       [this, i] { apply_event(timeline_events_[i]); });
    }
    if (score_sample_interval_ > Duration::zero()) schedule_score_sample();
    if (rps_) schedule_rps_round();
    if (streamed_.enabled) schedule_health_fold();
  }
  sim_.run_until(t);
}

void Experiment::run() { run_until(kSimEpoch + config_.duration); }

void Experiment::wind_down() {
  wound_down_ = true;
  if (source_) source_->stop();
  for (auto& node : nodes_) node.stop();
  // Adversary controllers reschedule themselves like agents do; stopping
  // them is what lets the drain below terminate.
  for (auto& controller : controllers_) {
    if (controller) controller->stop();
  }
  // Drain: with every periodic loop stopped, only in-flight deliveries and
  // one-shot timers remain, and none of them reschedules. The queue
  // empties, returning every pooled delivery slot.
  sim_.run();
}

// ------------------------------------------------------------- timeline

void Experiment::ensure_tables(std::uint32_t n) {
  if (nodes_.size() >= n) return;
  nodes_.resize(n);
  freerider_.resize(n, 0);
  weak_.resize(n, 0);
  departed_.resize(n, 0);
  ever_rejoined_.resize(n, 0);
  expulsion_scheduled_.resize(n, 0);
  expelled_applied_.resize(n, 0);
  join_time_.resize(n, kSimEpoch);
  controllers_.resize(n);
}

void Experiment::set_freerider(NodeId id, bool freeride) {
  auto& flag = freerider_[id.value()];
  if ((flag != 0) == freeride) return;
  flag = freeride ? 1 : 0;
  if (freeride) {
    freerider_list_.insert(
        std::lower_bound(freerider_list_.begin(), freerider_list_.end(), id),
        id);
  } else {
    const auto it =
        std::find(freerider_list_.begin(), freerider_list_.end(), id);
    if (it != freerider_list_.end()) freerider_list_.erase(it);
  }
}

void Experiment::apply_event(const ScenarioEvent& event) {
  if (wound_down_) return;
  switch (event.kind) {
    case ScenarioEventKind::kJoin:
      join_node(event);
      break;
    case ScenarioEventKind::kLeave:
      retire_node(event.node, /*crash=*/false);
      break;
    case ScenarioEventKind::kCrash:
      retire_node(event.node, /*crash=*/true);
      break;
    case ScenarioEventKind::kRejoin:
      rejoin_node(event.node);
      break;
    case ScenarioEventKind::kSetBehavior: {
      const auto v = static_cast<std::size_t>(event.node.value());
      require(v < nodes_.size(), "set_behavior on an unknown node");
      if (is_departed(event.node)) return;
      set_freerider(event.node, event.freerider);
      nodes_[v].set_behavior(resolve_behavior(event.behavior));
      break;
    }
    case ScenarioEventKind::kSetLink: {
      const auto v = static_cast<std::size_t>(event.node.value());
      require(v < nodes_.size(), "set_link on an unknown node");
      if (is_departed(event.node)) return;
      network_->set_profile(event.node, event.link);
      break;
    }
    case ScenarioEventKind::kSetFaults:
      // Deployment-wide plan swap; injector chain state and rng streams
      // persist across swaps (an empty plan heals without forgetting).
      injector_->set_plan(event.faults);
      break;
  }
}

NodeId Experiment::join_node(const ScenarioEvent& event) {
  const std::uint32_t idv =
      event.node == kAutoNodeId ? next_join_id_ : event.node.value();
  require(idv == next_join_id_,
          "joiner ids must be fresh and contiguous (base population, then "
          "join order) — ids are never recycled, so dense tables (ledger, "
          "scores) can never alias two incarnations, and no hole slots "
          "without an engine can exist");
  next_join_id_ = idv + 1;
  ensure_tables(idv + 1);
  const NodeId id{idv};

  directory_.join(id, sim_.now());
  if (rps_) rps_->join(id);
  set_freerider(id, event.freerider);
  join_time_[idv] = sim_.now();
  spawn_node(idv, resolve_behavior(event.behavior),
             event.has_link ? event.link : config_.link);
  // Materialize the joiner's manager row at a protocol-defined instant so
  // the assignment's promotion counter cannot depend on whether (and when)
  // measurement code later looks at the row.
  if (config_.lifting_enabled) (void)assignment_->of(id);

  // Desynchronized start, like the initial population (own stream so the
  // draw is independent of join order).
  nodes_[idv].start(
      NodeStack::join_offset(config_, idv, directory_.epoch_of(id)));
  // A freeriding joiner is an adversary like any base-population one: it
  // gets a controller the moment it enters (a coalition recruits it as the
  // members' views catch up).
  if (event.freerider) make_controller(id);
  joins_.push_back(JoinRecord{id, to_seconds(sim_.now()), event.freerider});
  return id;
}

void Experiment::retire_node(NodeId id, bool crash) {
  require(id != source(), "the source is pinned infrastructure");
  const auto v = static_cast<std::size_t>(id.value());
  require(v < nodes_.size(), "departure of an unknown node");
  if (is_departed(id)) return;
  // A node LiFTinG already expelled is not live; a churn departure
  // targeting it (the Poisson preset is generated blind to runtime
  // expulsions) must not reclassify it as a leaver — expulsion keeps it
  // in the detection statistics as a caught node.
  if (!directory_.is_live(id)) return;
  departed_[v] = 1;

  // Wind the node down in place: the objects outlive the departure so
  // pending timers and deliveries referencing them stay valid, but they
  // stop proposing, ticking and testifying. The network endpoint is torn
  // down immediately — packets to a dead host vanish.
  nodes_[v].stop();
  network_->remove_node(id);
  // The RPS learns of the departure like the membership does: the node's
  // own view empties now, references elsewhere decay as stale entries.
  if (rps_) rps_->leave(id);

  if (crash) {
    // The membership only learns of a crash when the failure detector
    // fires; until then partners keep selecting the dead node and its
    // verifiers blame the silence (wrongful blame, split out by
    // honest_blame_split / bench_churn). Epoch-guarded: if the node
    // rejoins before detection, the stale detector must not evict the new
    // incarnation (rejoin_node records the departure itself in that case).
    const std::uint32_t epoch = directory_.epoch_of(id);
    sim_.schedule_after(config_.failure_detection, [this, id, epoch] {
      if (directory_.epoch_of(id) == epoch && is_departed(id)) {
        directory_.leave(id, sim_.now());
      }
    });
  } else {
    directory_.leave(id, sim_.now());
  }
  departures_.push_back(
      DepartureRecord{id, to_seconds(sim_.now()), crash, is_freerider(id)});

  // Manager handoff (DESIGN.md §7): once the membership has learned of the
  // departure and the reassignment round has run, promote replacements and
  // migrate the departed node's ledger rows. Epoch-guarded like the
  // failure detector: a rejoin cancels the pending handoff.
  if (config_.manager_handoff && config_.lifting_enabled) {
    const std::uint32_t epoch = directory_.epoch_of(id);
    const Duration delay =
        (crash ? config_.failure_detection : Duration::zero()) +
        config_.manager_handoff_delay;
    sim_.schedule_after(delay, [this, id, epoch] {
      if (directory_.epoch_of(id) == epoch) run_handoff(id);
    });
  }
}

void Experiment::run_handoff(NodeId id) {
  if (wound_down_ || !is_departed(id)) return;
  execute_handoffs(assignment_->mark_departed(id), /*expelled=*/false);
}

void Experiment::run_expulsion_handoff(NodeId victim) {
  if (wound_down_) return;
  // mark_departed is shared with the churn path and idempotent, so an
  // expelled manager that ALSO appears in a churn departure can never have
  // a row promoted (or migrated) twice — whichever event lands first wins,
  // the other finds the mask already set and executes nothing.
  execute_handoffs(assignment_->mark_departed(victim), /*expelled=*/true);
}

void Experiment::execute_handoffs(
    const std::vector<lifting::ManagerAssignment::Handoff>& executed,
    bool expelled) {
  for (const auto& handoff : executed) {
    bool migrated = false;
    auto* from = nodes_[handoff.departed.value()].agent();
    auto* to = nodes_[handoff.replacement.value()].agent();
    if (from != nullptr && to != nullptr) {
      // The move zeroes the departing store's row, so a row can migrate at
      // most once (tests/test_churn_resilience.cpp pins this).
      const auto record = from->manager_store().take_record(handoff.target);
      migrated = record.valid;
      to->manager_store().adopt_record(handoff.target, record);
    }
    handoffs_.push_back(HandoffRecord{handoff.target, handoff.departed,
                                      handoff.replacement,
                                      directory_.epoch_of(handoff.departed),
                                      to_seconds(sim_.now()), migrated,
                                      expelled});
    if (recorder_ != nullptr) {
      recorder_->record(
          obs::EventKind::kHandoff, handoff.replacement, handoff.target,
          handoff.departed.value(), 0.0,
          static_cast<std::uint8_t>((migrated ? 1U : 0U) |
                                    (expelled ? 2U : 0U)));
    }
  }
}

void Experiment::rejoin_node(NodeId id) {
  require(id != source(), "the source is pinned infrastructure");
  const auto v = static_cast<std::size_t>(id.value());
  require(v < nodes_.size(), "rejoin of an unknown node");
  // Lenient like retire_node: the timeline is generated blind to runtime
  // outcomes, so a rejoin of a node that never departed — or that LiFTinG
  // expelled first (an indictment is not outlived by leaving) — is a no-op.
  if (!is_departed(id)) return;
  // A committed expulsion whose propagation the departure preempted is
  // still an indictment: the managers agreed before the node vanished, so
  // it may not slip back in (and the latched expulsion_scheduled_ flag
  // would otherwise block ever expelling the new incarnation).
  if (expulsion_scheduled_[v] != 0) return;
  // If this node's own manager handoff is still pending (it bounced back
  // inside the handoff window), execute it NOW: the epoch bump below
  // cancels the scheduled timer, and without the early migration the
  // graveyard move would destroy every ledger row the old incarnation
  // held — bouncing must not be a way to flush blame records.
  if (config_.manager_handoff && config_.lifting_enabled) run_handoff(id);
  departed_[v] = 0;
  ever_rejoined_[v] = 1;
  // A crashed node whose failure detector has not fired yet is still in
  // the membership; record the departure now so the rejoin below bumps the
  // alive epoch (the stale detector lambda is epoch-guarded and fizzles).
  if (directory_.is_live(id)) directory_.leave(id, sim_.now());
  directory_.join(id, sim_.now());
  if (rps_) {
    rps_->leave(id);  // idempotent: retire_node already marked it dead
    rps_->join(id);
  }
  join_time_[v] = sim_.now();

  // The old incarnation's stack moves to the graveyard — in-flight timers
  // and deliveries may still reference it (DESIGN.md §5 retirement
  // contract); a fresh stack with epoch-keyed rng streams and genesis = now
  // takes the slot. Prior roles (freerider flag, weak link)
  // are restored from the deployment's role tables.
  retired_.push_back(std::move(nodes_[v]));
  const auto behavior = is_freerider(id)
                            ? resolve_behavior(config_.freerider_behavior)
                            : gossip::BehaviorSpec::honest();
  spawn_node(static_cast<std::uint32_t>(v), behavior,
             weak_[v] != 0 ? config_.weak_link : config_.link);

  // Carried store (carried_manager_store): with handoff OFF, blame
  // knowledge is conserved across the bounce by the returning manager
  // keeping its own rows — move them from the retired incarnation's store
  // into the fresh one (genesis-stamped so period counts don't restart).
  // Inert while manager_handoff is on: the handoff path already migrated
  // the rows to promoted replacements. Runs before the kFresh loop below
  // so the rejoining node's own carried row still obeys the fresh policy.
  if (config_.lifting_enabled && !config_.manager_handoff &&
      config_.carried_manager_store) {
    auto* old_agent = retired_.back().agent();
    auto* new_agent = nodes_[v].agent();
    if (old_agent != nullptr && new_agent != nullptr) {
      old_agent->manager_store().carry_into(new_agent->manager_store());
    }
  }

  // Desynchronized start on the incarnation's own stream, so no
  // incarnation replays another's offset draw.
  nodes_[v].start(
      NodeStack::join_offset(config_, id.value(), directory_.epoch_of(id)));

  if (config_.lifting_enabled) {
    // The returning node becomes an eligible handoff candidate again;
    // promotions that already happened stay (handoff is sticky).
    if (config_.manager_handoff) assignment_->mark_returned(id);
    if (config_.rejoin_scores == ScenarioConfig::RejoinScores::kFresh) {
      // Fresh score policy: the managers restart the row at the rejoin
      // instant — blame forgotten, period count restarted (the expulsion
      // mark, if any, survives). kCarried keeps the rows untouched.
      // Departed managers are restarted too: their stores are live memory
      // (in-place retirement), and a pending handoff would otherwise
      // migrate the previous incarnation's blame to the replacement,
      // silently violating the fresh policy.
      for (const auto manager : assignment_->of(id)) {
        auto* agent = nodes_[manager.value()].agent();
        if (agent != nullptr) {
          agent->manager_store().begin_incarnation(id, sim_.now());
        }
      }
    }
  }
  // An adversary's controller survives the incarnation change (it is the
  // node's operator, not part of the node) — resynchronize it with the
  // full-throttle behavior spawn_node just reinstalled, whether the rejoin
  // was its own whitewash bounce or a timeline event.
  if (auto* controller = controllers_[v].get()) {
    controller->on_reincarnated();
  }
  rejoins_.push_back(RejoinRecord{id, to_seconds(sim_.now()),
                                  directory_.epoch_of(id), is_freerider(id)});
}

// ------------------------------------------------------------ expulsions

void Experiment::on_expulsion_committed(NodeId victim, bool from_audit) {
  if (!config_.expulsion_enabled) return;
  if (victim == source()) return;  // the source is trusted infrastructure
  if (expulsion_scheduled_[victim.value()] != 0) return;
  expulsion_scheduled_[victim.value()] = 1;
  // The managers announce the expulsion; it reaches the membership layer
  // after a propagation delay, at which point honest nodes shun the victim.
  sim_.schedule_after(config_.expulsion_propagation, [this, victim,
                                                      from_audit] {
    if (!directory_.is_live(victim)) return;
    directory_.expel(victim);
    // Honest nodes shun the victim: its RPS views die with the expulsion
    // (entries naming it elsewhere go stale and decay over the next rounds).
    if (rps_) rps_->leave(victim);
    expelled_applied_[victim.value()] = 1;
    expulsions_.push_back(ExpulsionRecord{victim, to_seconds(sim_.now()),
                                          from_audit,
                                          is_freerider(victim)});
    if (recorder_ != nullptr) {
      recorder_->record(obs::EventKind::kExpulsionApplied, victim, victim, 0,
                        0.0, from_audit ? 1 : 0,
                        is_freerider(victim) ? 1 : 0);
    }
    // Expulsion handoff (DESIGN.md §7): an expelled manager vacates its
    // quorum slots the same way a departed one does — replacement promoted
    // after the reassignment round, ledger rows migrated. Without it the
    // indicted manager leaves a permanent quorum hole (the pre-fix
    // baseline expulsion_handoff = false preserves for A/B runs).
    if (config_.manager_handoff && config_.expulsion_handoff &&
        config_.lifting_enabled) {
      sim_.schedule_after(config_.manager_handoff_delay,
                          [this, victim] { run_expulsion_handoff(victim); });
    }
  });
}

// ----------------------------------------------------------- measurement

double Experiment::true_score(NodeId id) {
  LIFTING_ASSERT(config_.lifting_enabled, "scores require LiFTinG");
  const auto& mgrs = assignment_->of(id);
  // Mirrors the protocol read: min-vote by default, mean for the ablation.
  const bool use_min =
      config_.lifting.score_vote == LiftingParams::ScoreVote::kMin;
  double min_score = 0.0;
  double sum = 0.0;
  std::size_t counted = 0;
  const bool coalition_active =
      config_.freerider_behavior.collusion.has_value() && is_freerider(id);
  for (const auto m : mgrs) {
    if (is_departed(m)) continue;  // a departed manager answers nothing
    double s =
        nodes_[m.value()].agent()->manager_store().normalized_score(id,
                                                                    sim_.now());
    // A colluding manager inflates its coalition's scores on the wire
    // (§5.1); this read mirrors what the managers would actually answer
    // (the same inflated value Agent::handle_score_query reports).
    if (coalition_active && is_freerider(m)) s = std::max(s, 25.0);
    sum += s;
    if (counted == 0 || s < min_score) min_score = s;
    ++counted;
  }
  if (counted == 0) return 0.0;  // all managers churned out: no reply
  return use_min ? min_score : sum / static_cast<double>(counted);
}

bool Experiment::majority_expelled(NodeId id) {
  const auto& mgrs = assignment_->of(id);
  std::size_t expelled = 0;
  std::size_t counted = 0;
  for (const auto m : mgrs) {
    if (is_departed(m)) continue;
    if (nodes_[m.value()].agent()->manager_store().expelled(id)) ++expelled;
    ++counted;
  }
  return counted > 0 && expelled * 2 > counted;
}

Experiment::ScoreSnapshot Experiment::snapshot_scores() {
  ScoreSnapshot snap;
  for (std::uint32_t i = 1; i < population(); ++i) {
    const NodeId id{i};
    if (is_departed(id)) continue;
    const double s = true_score(id);
    if (is_freerider(id)) {
      snap.freeriders.push_back(s);
    } else {
      snap.honest.push_back(s);
    }
  }
  return snap;
}

void Experiment::sample_scores_every(Duration interval, ScoreSampleMode mode) {
  require(interval > Duration::zero(), "sampling interval must be positive");
  require(config_.lifting_enabled, "score sampling requires LiFTinG");
  const bool arm_now = started_ && score_sample_interval_ == Duration::zero();
  score_sample_interval_ = interval;
  score_sample_mode_ = mode;
  if (arm_now) schedule_score_sample();
}

void Experiment::schedule_score_sample() {
  sim_.schedule_after(score_sample_interval_, [this] {
    if (wound_down_) return;
    // Streamed summary: one pass over the live population, O(1) retained.
    ScoreSummary summary;
    summary.at_seconds = to_seconds(sim_.now());
    double honest_sum = 0.0;
    double freerider_sum = 0.0;
    for (std::uint32_t i = 1; i < population(); ++i) {
      const NodeId id{i};
      if (is_departed(id)) continue;
      const double s = true_score(id);
      if (is_freerider(id)) {
        ++summary.freeriders;
        freerider_sum += s;
        if (summary.freeriders == 1 || s > summary.freerider_max) {
          summary.freerider_max = s;
        }
      } else {
        ++summary.honest;
        honest_sum += s;
        if (summary.honest == 1 || s < summary.honest_min) {
          summary.honest_min = s;
        }
      }
    }
    if (summary.honest > 0) {
      summary.honest_mean = honest_sum / static_cast<double>(summary.honest);
    }
    if (summary.freeriders > 0) {
      summary.freerider_mean =
          freerider_sum / static_cast<double>(summary.freeriders);
    }
    score_summaries_.push_back(summary);
    if (score_sample_mode_ == ScoreSampleMode::kRetained) {
      score_timeline_.push_back(
          TimedScores{summary.at_seconds, snapshot_scores()});
    }
    schedule_score_sample();
  });
}

DetectionStats Experiment::detection_at(double eta) {
  DetectionStats stats;
  for (std::uint32_t i = 1; i < population(); ++i) {
    const NodeId id{i};
    if (is_departed(id)) continue;  // gone through churn: not judgeable
    const bool flagged = !directory_.is_live(id) || true_score(id) < eta;
    if (is_freerider(id)) {
      ++stats.freeriders;
      if (flagged) stats.detection += 1.0;
    } else {
      ++stats.honest;
      if (flagged) stats.false_positive += 1.0;
    }
  }
  if (stats.freeriders > 0) {
    stats.detection /= static_cast<double>(stats.freeriders);
  }
  if (stats.honest > 0) {
    stats.false_positive /= static_cast<double>(stats.honest);
  }
  return stats;
}

HonestBlameSplit Experiment::honest_blame_split() const {
  HonestBlameSplit split;
  for (std::uint32_t i = 1; i < population(); ++i) {
    const NodeId id{i};
    if (is_freerider(id)) continue;
    if (is_departed(id)) {
      // Currently gone counts as a leaver even if it rejoined in between —
      // its most recent transition is a departure.
      ++split.leavers;
      split.leaver_total += ledger_.total(id);
    } else if (ever_rejoined(id)) {
      ++split.rejoiners;
      split.rejoiner_total += ledger_.total(id);
    } else {
      ++split.stayers;
      split.stayer_total += ledger_.total(id);
    }
  }
  return split;
}

Experiment::AdversaryStats Experiment::adversary_stats() {
  AdversaryStats stats;
  const double elapsed = to_seconds(sim_.now());
  double gain_sum = 0.0;
  double presence_sum = 0.0;
  for (auto& controller : controllers_) {
    if (!controller) continue;
    const auto s = controller->stats(sim_.now());
    ++stats.adversaries;
    gain_sum += s.realized_gain();
    if (elapsed > 0.0) presence_sum += s.present_seconds / elapsed;
    stats.behavior_switches += s.behavior_switches;
    stats.probes += s.probes;
    stats.bounces += s.bounces;
  }
  if (stats.adversaries > 0) {
    stats.mean_realized_gain =
        gain_sum / static_cast<double>(stats.adversaries);
    stats.mean_present_fraction =
        presence_sum / static_cast<double>(stats.adversaries);
  }
  return stats;
}

std::uint64_t Experiment::handoff_promotions() const noexcept {
  return assignment_ == nullptr ? 0 : assignment_->promotions();
}

QuorumStats Experiment::quorum_stats() {
  QuorumStats stats;
  if (assignment_ == nullptr) return stats;
  std::size_t min_present = std::numeric_limits<std::size_t>::max();
  double sum = 0.0;
  for (std::uint32_t i = 1; i < population(); ++i) {
    const NodeId id{i};
    if (is_departed(id) || !directory_.is_live(id)) continue;
    const auto& managers = assignment_->of(id);
    std::size_t present = 0;
    for (const auto manager : managers) {
      // An expelled manager is not a working quorum member even when no
      // handoff replaced it (the pre-fix accounting counted it present,
      // hiding the permanent hole expulsions used to leave).
      if (!is_departed(manager) && !is_expelled_member(manager)) ++present;
    }
    sum += static_cast<double>(present);
    min_present = std::min(min_present, present);
    ++stats.targets;
  }
  if (stats.targets > 0) {
    stats.mean = sum / static_cast<double>(stats.targets);
    stats.min = min_present;
  }
  return stats;
}

std::vector<gossip::HealthPoint> Experiment::health_curve(
    const std::vector<double>& lags_seconds, bool honest_only,
    const gossip::PlaybackConfig& playback) {
  std::vector<const gossip::DeliveryLog*> deliveries;
  const TimePoint warmup_end = kSimEpoch + playback.warmup;
  for (std::uint32_t i = 1; i < population(); ++i) {
    const NodeId id{i};
    if (honest_only && is_freerider(id)) continue;
    if (is_departed(id)) continue;          // log froze mid-stream
    if (join_time_[i] > warmup_end) continue;  // missed judgeable chunks
    deliveries.push_back(&nodes_[i].engine().delivery_times());
  }
  return gossip::health_curve(source_->emitted(), deliveries, sim_.now(),
                              lags_seconds, playback);
}

void Experiment::enable_streamed_health(std::vector<double> lags_seconds,
                                        bool honest_only,
                                        const gossip::PlaybackConfig& playback,
                                        Duration fold_interval) {
  require(!lags_seconds.empty(), "streamed health needs at least one lag");
  require(fold_interval > Duration::zero(), "fold interval must be positive");
  const bool arm_now = started_ && !streamed_.enabled;
  streamed_.enabled = true;
  streamed_.lags_seconds = std::move(lags_seconds);
  streamed_.honest_only = honest_only;
  streamed_.playback = playback;
  streamed_.fold_interval = fold_interval;
  double horizon = playback.common_window_lag;
  for (const double lag : streamed_.lags_seconds) {
    horizon = std::max(horizon, lag);
  }
  streamed_.fold_horizon = seconds(horizon);
  streamed_.folded_chunks = 0;
  streamed_.folded_eligible = 0;
  streamed_.on_time.assign(static_cast<std::size_t>(population()) *
                               streamed_.lags_seconds.size(),
                           0);
  if (arm_now) schedule_health_fold();
}

void Experiment::schedule_rps_round() {
  sim_.schedule_after(config_.membership.rps_round_period, [this] {
    if (wound_down_) return;
    rps_->run_round();
    schedule_rps_round();
  });
}

void Experiment::schedule_health_fold() {
  sim_.schedule_after(streamed_.fold_interval, [this] {
    if (wound_down_) return;
    fold_streamed_health();
    schedule_health_fold();
  });
}

void Experiment::fold_streamed_health() {
  const auto& emitted = source_->emitted();
  const std::size_t nlags = streamed_.lags_seconds.size();
  // Joiners since the last fold: extend the counter table (dense by id).
  streamed_.on_time.resize(static_cast<std::size_t>(population()) * nlags, 0);
  const TimePoint warmup_end = kSimEpoch + streamed_.playback.warmup;
  const TimePoint now = sim_.now();
  std::size_t i = streamed_.folded_chunks;
  for (; i < emitted.size(); ++i) {
    const auto& chunk = emitted[i];
    // Emission times are monotone, so the foldable chunks are a prefix.
    // Strictly before `now`: a delivery scheduled at this very instant but
    // ordered after the fold would land exactly on its deadline — folding
    // the chunk now would judge it late while retained logs judge it on
    // time. Past-deadline chunks cannot have that race.
    if (chunk.emitted_at + streamed_.fold_horizon >= now) break;
    if (chunk.emitted_at < warmup_end) continue;  // ineligible at every lag
    ++streamed_.folded_eligible;
    for (std::uint32_t v = 1; v < population(); ++v) {
      const auto at = nodes_[v].engine().delivery_times().find(chunk.id);
      if (!at) continue;  // never arrived: on time nowhere
      auto* counters = &streamed_.on_time[static_cast<std::size_t>(v) * nlags];
      for (std::size_t j = 0; j < nlags; ++j) {
        if (*at <= chunk.emitted_at + seconds(streamed_.lags_seconds[j])) {
          ++counters[j];
        }
      }
    }
  }
  if (i == streamed_.folded_chunks) return;
  streamed_.folded_chunks = i;
  // Every chunk below the fold line is judged at every lag; its delivery
  // stamps can go. Presence bits stay (they are the engines' held-set).
  const ChunkId horizon = i < emitted.size()
                              ? emitted[i].id
                              : ChunkId{emitted.back().id.value() + 1};
  for (const auto* pool : {&nodes_, &retired_}) {
    for (const auto& node : *pool) node.engine().compact_delivery_log(horizon);
  }
}

std::vector<gossip::HealthPoint> Experiment::streamed_health_curve() {
  require(streamed_.enabled, "call enable_streamed_health first");
  const auto& emitted = source_->emitted();
  const std::size_t nlags = streamed_.lags_seconds.size();
  streamed_.on_time.resize(static_cast<std::size_t>(population()) * nlags, 0);
  const TimePoint warmup_end = kSimEpoch + streamed_.playback.warmup;
  const TimePoint end = sim_.now();

  // Node filter, exactly health_curve's.
  std::vector<std::uint32_t> included;
  for (std::uint32_t i = 1; i < population(); ++i) {
    const NodeId id{i};
    if (streamed_.honest_only && is_freerider(id)) continue;
    if (is_departed(id)) continue;             // log froze mid-stream
    if (join_time_[i] > warmup_end) continue;  // missed judgeable chunks
    included.push_back(i);
  }

  const bool common = streamed_.playback.common_window_lag > 0.0;
  std::vector<gossip::HealthPoint> curve;
  curve.reserve(nlags);
  std::vector<std::uint32_t> tail_on_time(included.size());
  for (std::size_t j = 0; j < nlags; ++j) {
    const double lag_s = streamed_.lags_seconds[j];
    const Duration lag = seconds(lag_s);
    const Duration window_lag =
        common ? seconds(streamed_.playback.common_window_lag) : lag;
    // The unfolded tail — chunks whose window closed after the last fold —
    // still has its delivery stamps and is judged exactly like
    // health_curve does; the folded prefix contributes integer counters.
    std::uint64_t eligible = streamed_.folded_eligible;
    std::fill(tail_on_time.begin(), tail_on_time.end(), 0);
    for (std::size_t c = streamed_.folded_chunks; c < emitted.size(); ++c) {
      const auto& chunk = emitted[c];
      if (chunk.emitted_at < warmup_end) continue;
      if (chunk.emitted_at + window_lag > end) continue;
      ++eligible;
      for (std::size_t k = 0; k < included.size(); ++k) {
        const auto at =
            nodes_[included[k]].engine().delivery_times().find(chunk.id);
        if (at && *at <= chunk.emitted_at + lag) {
          ++tail_on_time[k];
        }
      }
    }
    if (eligible == 0) {
      curve.push_back(gossip::HealthPoint{lag_s, 0.0});
      continue;
    }
    std::size_t clear_nodes = 0;
    for (std::size_t k = 0; k < included.size(); ++k) {
      const auto folded =
          streamed_.on_time[static_cast<std::size_t>(included[k]) * nlags + j];
      const double frac = static_cast<double>(folded + tail_on_time[k]) /
                          static_cast<double>(eligible);
      if (frac >= streamed_.playback.clear_threshold) ++clear_nodes;
    }
    curve.push_back(gossip::HealthPoint{
        lag_s, included.empty()
                   ? 0.0
                   : static_cast<double>(clear_nodes) /
                         static_cast<double>(included.size())});
  }
  return curve;
}

void Experiment::enable_trace(std::size_t capacity) {
  require(recorder_ == nullptr, "flight recorder already armed");
  recorder_ = std::make_unique<obs::Recorder>(sim_, capacity);
  injector_->set_trace(recorder_.get());
  if (rps_) rps_->set_trace(recorder_.get());
  for (auto& node : nodes_) node.set_trace(recorder_.get());
  for (auto& controller : controllers_) {
    if (controller) controller->set_trace(recorder_.get());
  }
}

void Experiment::collect_metrics(obs::Registry& out) const {
  // The Mailer's tally as sent.<kind>.count / sent.<kind>.bytes, for the
  // kinds that sent anything, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> sent;
  for (std::size_t k = 0; k < mailer_->sent().size(); ++k) {
    const auto& kind = mailer_->sent()[k];
    if (kind.count == 0) continue;
    const std::string prefix =
        std::string("sent.") + gossip::message_kind_name(k);
    sent.emplace_back(prefix + ".count", kind.count);
    sent.emplace_back(prefix + ".bytes", kind.bytes);
  }
  std::sort(sent.begin(), sent.end());
  for (const auto& [name, value] : sent) out.set_counter(name, value);
  const auto& net = network_->stats();
  out.set_counter("net.datagrams_sent", net.datagrams_sent);
  out.set_counter("net.datagrams_lost", net.datagrams_lost);
  out.set_counter("net.datagrams_dropped", net.datagrams_dropped);
  out.set_counter("net.datagrams_delivered", net.datagrams_delivered);
  out.set_counter("net.reliable_sent", net.reliable_sent);
  out.set_counter("net.reliable_delivered", net.reliable_delivered);
  out.set_counter("net.bytes_sent", net.bytes_sent);
  out.set_counter("net.bytes_delivered", net.bytes_delivered);
  out.set_counter("net.no_route", net.no_route);
  const auto& faults = injector_->stats();
  out.set_counter("faults.dropped_burst", faults.dropped_burst);
  out.set_counter("faults.dropped_partition", faults.dropped_partition);
  out.set_counter("faults.duplicated", faults.duplicated);
  out.set_counter("faults.delayed", faults.delayed);
  out.set_counter("faults.reordered", faults.reordered);
  const auto audit = audit_channel_totals();
  out.set_counter("audit_channel.sends", audit.sends);
  out.set_counter("audit_channel.retries", audit.retries);
  out.set_counter("audit_channel.give_ups", audit.give_ups);
  out.set_counter("audit_channel.acks_received", audit.acks_received);
  out.set_counter("audit_channel.dups_suppressed", audit.dups_suppressed);
  gossip::EngineStats engines;
  for (const auto* pool : {&nodes_, &retired_}) {
    for (const auto& node : *pool) engines += node.engine().stats();
  }
  for (const auto& [name, field] : gossip::EngineStats::kFields) {
    out.set_counter(std::string("engine.").append(name), engines.*field);
  }
  // The memory layer table (DESIGN.md §9): RingLog pages each per-node
  // log holds now and the bytes of the verifier and manager tables,
  // summed over every id's current stack (a departed node keeps its
  // state, so it counts too).
  std::uint64_t verifier_bytes = 0;
  std::uint64_t manager_bytes = 0;
  std::uint64_t sent_pages = 0;
  std::uint64_t asker_pages = 0;
  std::uint64_t received_pages = 0;
  std::uint64_t delivery_pages = 0;
  std::uint64_t engine_pages = 0;
  for (const auto& node : nodes_) {
    delivery_pages += node.engine().delivery_times().pages();
    engine_pages += node.engine().period_state_pages();
    const auto* agent = node.agent();
    if (agent == nullptr) continue;
    verifier_bytes += agent->verifier_table_bytes();
    manager_bytes += agent->manager_store().table_bytes();
    received_pages += agent->received_log().pages();
    if (const auto* trail = agent->audit_trail()) {
      sent_pages += trail->sent.pages();
      asker_pages += trail->askers.pages();
    }
  }
  out.set_counter("mem.pages.sent_history", sent_pages);
  out.set_counter("mem.pages.asker_log", asker_pages);
  out.set_counter("mem.pages.received_log", received_pages);
  out.set_counter("mem.pages.delivery_times", delivery_pages);
  out.set_counter("mem.pages.engine", engine_pages);
  out.set_counter("mem.verifier_table_bytes", verifier_bytes);
  out.set_counter("mem.manager_table_bytes", manager_bytes);
  out.set_counter("blame.ledger_emissions", ledger_.emissions());
  out.set_counter("expulsions.applied", expulsions_.size());
  out.set_counter("handoffs.executed", handoffs_.size());
  out.set_counter("churn.joins", joins_.size());
  out.set_counter("churn.departures", departures_.size());
  out.set_counter("churn.rejoins", rejoins_.size());
  if (recorder_ != nullptr) {
    out.set_counter("trace.recorded", recorder_->ring().total_recorded());
    out.set_counter("trace.dropped", recorder_->ring().dropped());
  }
}

OverheadReport Experiment::overhead() const {
  OverheadReport report;
  const auto& sent = mailer_->sent();
  for (std::size_t k = 0; k < sent.size(); ++k) {
    switch (gossip::kind_class(k)) {
      case gossip::KindClass::kDissemination:
        report.dissemination_bytes += sent[k].bytes;
        break;
      case gossip::KindClass::kVerification:
        report.verification_bytes += sent[k].bytes;
        break;
      case gossip::KindClass::kAudit:
        report.audit_bytes += sent[k].bytes;
        break;
      case gossip::KindClass::kSubstrate:
        break;
    }
  }
  return report;
}

}  // namespace lifting::runtime
