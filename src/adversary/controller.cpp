#include "adversary/controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace lifting::adversary {

// --------------------------------------------------------- CoalitionHub

void CoalitionHub::enroll(NodeId id) {
  const auto it = std::lower_bound(members_.begin(), members_.end(), id);
  if (it != members_.end() && *it == id) return;
  const auto index = static_cast<std::size_t>(it - members_.begin());
  members_.insert(it, id);
  last_seen_.insert(last_seen_.begin() + static_cast<std::ptrdiff_t>(index),
                    TimePoint::min());
}

void CoalitionHub::report_sighting(NodeId subject, TimePoint now) {
  const auto it = std::lower_bound(members_.begin(), members_.end(), subject);
  if (it == members_.end() || *it != subject) return;  // not a colluder
  auto& seen = last_seen_[static_cast<std::size_t>(it - members_.begin())];
  seen = std::max(seen, now);
}

bool CoalitionHub::recently_seen(NodeId subject, TimePoint now,
                                 Duration stale) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), subject);
  if (it == members_.end() || *it != subject) return false;
  const TimePoint seen =
      last_seen_[static_cast<std::size_t>(it - members_.begin())];
  return seen != TimePoint::min() && seen + stale >= now;
}

// --------------------------------------------------- AdversaryController

AdversaryController::AdversaryController(sim::Simulator& sim, NodeId self,
                                         AdversaryConfig config,
                                         gossip::BehaviorSpec freeride,
                                         double eta, Pcg32 rng, Hooks hooks,
                                         CoalitionHub* hub)
    : sim_(sim),
      self_(self),
      config_(config),
      freeride_(std::move(freeride)),
      eta_(eta),
      rng_(rng),
      hooks_(std::move(hooks)),
      hub_(hub),
      score_(std::numeric_limits<double>::quiet_NaN()) {
  config_.validate();
  LIFTING_ASSERT(config_.enabled(), "controller built for Strategy::kNone");
  if (config_.strategy == Strategy::kCoalition) {
    LIFTING_ASSERT(hub_ != nullptr, "coalition strategy needs a hub");
    // A coalition adversary always colludes; give it an (initially empty)
    // cover-up spec if the scenario's freerider behavior carries none.
    if (!freeride_.collusion.has_value()) {
      freeride_.collusion.emplace();
      freeride_.collusion->cover_up = true;
    }
    hub_->enroll(self_);
  }
}

void AdversaryController::start() {
  LIFTING_ASSERT(!started_, "controller started twice");
  started_ = true;
  mark_ = sim_.now();
  // Desynchronized first tick, drawn from the controller's own stream so a
  // scenario without adversaries draws nothing anywhere.
  const auto offset = Duration{static_cast<Duration::rep>(
      rng_.uniform() * static_cast<double>(config_.decision_period.count()))};
  phase_origin_ = sim_.now() + offset;
  next_probe_ = phase_origin_;
  sim_.schedule_after(offset, [this] { tick(); });
}

void AdversaryController::account(TimePoint now) {
  const double dt = to_seconds(now - mark_);
  mark_ = now;
  if (dt <= 0.0) return;
  const bool present = !hooks_.present || hooks_.present();
  if (!present) return;
  stats_.present_seconds += dt;
  if (freeriding_) stats_.gain_seconds += dt * freeride_.gain();
}

AdversaryController::Stats AdversaryController::stats(TimePoint now) {
  account(now);
  return stats_;
}

void AdversaryController::on_reincarnated() {
  const TimePoint now = sim_.now();
  account(now);  // close the absence interval at the rejoin boundary
  freeriding_ = true;  // the rejoin reinstalled the full-throttle spec
  awaiting_rejoin_ = false;
  rejoin_attempts_ = 0;
  score_ = std::numeric_limits<double>::quiet_NaN();
  probe_in_flight_ = false;
  next_probe_ = now + config_.probe_interval;
  cover_set_.clear();
}

void AdversaryController::switch_mode(bool freeriding, TimePoint now) {
  if (freeriding == freeriding_) return;
  account(now);
  freeriding_ = freeriding;
  ++stats_.behavior_switches;
  if (hooks_.apply_behavior) {
    hooks_.apply_behavior(freeriding ? freeride_
                                     : gossip::BehaviorSpec::honest());
  }
}

void AdversaryController::maybe_probe(TimePoint now) {
  if (!config_.needs_probes() || !hooks_.probe_score) return;
  if (probe_in_flight_ || now < next_probe_) return;
  probe_in_flight_ = true;
  next_probe_ = now + config_.probe_interval;
  ++stats_.probes;
  hooks_.probe_score([this](const ScoreEstimate& estimate) {
    probe_in_flight_ = false;
    if (estimate.replies > 0) score_ = estimate.score;
    if (estimate.expelled_hint) {
      // A manager already holds the expulsion mark: the most alarming
      // signal the protocol can leak to us.
      score_ = -std::numeric_limits<double>::infinity();
    }
  });
}

void AdversaryController::tick() {
  if (stopped_ || dormant_) return;
  const TimePoint now = sim_.now();
  // Integrate presence/gain at tick resolution so timeline-driven churn of
  // this node is attributed to within one decision period.
  account(now);
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kAdversaryTick, self_, self_,
                   stats_.probes, std::isnan(score_) ? 0.0 : score_,
                   freeriding_ ? 1 : 0,
                   static_cast<std::uint16_t>(stats_.bounces));
  }
  decide(now);
  if (!dormant_) {
    sim_.schedule_after(config_.decision_period, [this] { tick(); });
  }
}

void AdversaryController::decide(TimePoint now) {
  switch (config_.strategy) {
    case Strategy::kNone:
      return;
    case Strategy::kOscillate:
      decide_oscillate(now);
      return;
    case Strategy::kScoreAware:
      decide_score_aware();
      return;
    case Strategy::kWhitewash:
      decide_whitewash(now);
      return;
    case Strategy::kCoalition:
      decide_coalition(now);
      return;
  }
}

void AdversaryController::decide_oscillate(TimePoint now) {
  if (hooks_.present && !hooks_.present()) return;
  const auto cycle = config_.duty_on + config_.duty_off;
  const auto phase =
      Duration{(now - phase_origin_).count() % cycle.count()};
  switch_mode(phase < config_.duty_on, now);
}

void AdversaryController::decide_score_aware() {
  const TimePoint now = sim_.now();
  if (hooks_.present && !hooks_.present()) return;
  maybe_probe(now);
  if (std::isnan(score_)) return;  // no feedback yet: keep freeriding
  if (freeriding_ && score_ <= eta_ + config_.throttle_margin) {
    switch_mode(false, now);
  } else if (!freeriding_ && score_ >= eta_ + config_.resume_margin) {
    switch_mode(true, now);
  }
}

void AdversaryController::decide_whitewash(TimePoint now) {
  if (awaiting_rejoin_) {
    if (now < rejoin_due_ || !hooks_.rejoin) return;
    hooks_.rejoin();
    // On success the deployment rebuilt our node and called
    // on_reincarnated(), which cleared awaiting_rejoin_ and reset the
    // mode/score state; a refusal leaves the flag set.
    if (awaiting_rejoin_ && ++rejoin_attempts_ >= 3) {
      // The rejoin is being refused — a committed expulsion outlived the
      // departure. We are caught; stop scheming.
      dormant_ = true;
    }
    return;
  }
  if (hooks_.present && !hooks_.present()) return;  // timeline took us out
  maybe_probe(now);
  if (std::isnan(score_) || score_ > eta_ + config_.flee_margin) return;
  if (stats_.bounces >= config_.max_bounces) {
    // Bounce budget spent: surviving beats gaining — go straight.
    switch_mode(false, now);
    return;
  }
  if (!hooks_.leave) return;
  account(now);
  hooks_.leave();
  ++stats_.bounces;
  awaiting_rejoin_ = true;
  rejoin_due_ = now + config_.lay_low;
  score_ = std::numeric_limits<double>::quiet_NaN();
}

void AdversaryController::decide_coalition(TimePoint now) {
  if (hooks_.present && !hooks_.present()) return;
  // Publish what we see, then cover for everyone the coalition's pooled
  // (view-lag-aware) intelligence still believes is in the system.
  hub_->report_sighting(self_, now);
  for (const NodeId member : hub_->members()) {
    if (member == self_) continue;
    if (hooks_.sees && hooks_.sees(member)) {
      hub_->report_sighting(member, now);
    }
  }
  // Scratch reuse: the effective set is recomputed every tick but changes
  // rarely — the steady state must not allocate per decision.
  effective_scratch_.clear();
  for (const NodeId member : hub_->members()) {
    if (member == self_ ||
        hub_->recently_seen(member, now, config_.intel_stale)) {
      effective_scratch_.push_back(member);
    }
  }
  if (effective_scratch_ == cover_set_) return;
  cover_set_ = effective_scratch_;
  auto spec = freeride_;
  spec.collusion->coalition = cover_set_;
  ++stats_.behavior_switches;
  if (hooks_.apply_behavior) hooks_.apply_behavior(spec);
}

}  // namespace lifting::adversary
