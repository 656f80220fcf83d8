#include "lifting/agent.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

#include "common/assert.hpp"
#include "membership/sampler.hpp"
#include "obs/trace.hpp"

namespace lifting {

namespace {
/// Witness window for confirm requests: a proposal must have been received
/// within this many periods to count (the serve→propose causality spans at
/// most one period plus transit slack). Also the floor on
/// LiftingParams::history_retention — pruning must never outrun it.
constexpr std::uint32_t kConfirmWindowPeriods =
    LiftingParams::kConfirmWindowPeriods;
constexpr std::size_t kRecentContactsCap = 64;
/// The score a colluding manager reports for a coalition member — a
/// "better than clean" value (§5.1's score-inflation attack).
constexpr double kInflatedScore = 25.0;
}  // namespace

struct Agent::AuditState {
  explicit AuditState(Agent& agent);

  Auditor auditor;
  AuditTrail trail;
};

struct Agent::AuditChannel {
  /// Content-derived retry/dedup key of an audit-kind message.
  struct Key {
    std::uint8_t kind = 0;  // Message variant index
    std::uint32_t audit_id = 0;
    NodeId subject;  // NodeId{0} for kinds without a subject
    [[nodiscard]] bool operator==(const Key& o) const noexcept {
      return kind == o.kind && audit_id == o.audit_id && subject == o.subject;
    }
  };
  [[nodiscard]] static Key key_of(const gossip::Message& msg);

  /// Delivery-health counters of one audit kind.
  [[nodiscard]] AuditChannelStats& stats(std::uint8_t kind) {
    return stats_by_kind[kind - gossip::kAuditKindFirst];
  }

  std::array<AuditChannelStats, gossip::kAuditKindCount> stats_by_kind{};
  /// One in-flight audit send awaiting its AuditAckMsg.
  struct Pending {
    NodeId to;
    Key key;
    std::uint32_t attempts = 0;  // transmissions so far
    std::uint64_t token = 0;     // ties backoff timers to this entry
    gossip::Message message;     // retained for retransmission
  };
  std::vector<Pending> pending;
  std::uint64_t next_retry_token = 1;
  /// Backoff jitter draws come from their own stream (0xD00000000 + self)
  /// so enabling the channel never perturbs the agent's main rng_ sequence
  /// (which CrossChecker shares by reference). Engaged on the first draw.
  std::optional<Pcg32> retry_rng;
  /// Receiver-side duplicate suppression: ring of recently seen
  /// (sender, key) pairs, capacity params_.audit_dedup_cap.
  struct Seen {
    NodeId from;
    Key key;
  };
  std::vector<Seen> seen;
  std::size_t seen_head = 0;
};

Agent::AuditState::AuditState(Agent& agent)
    : auditor(
          agent.sim_, agent.params_, agent.p_dcc_, agent.self_,
          [a = &agent](NodeId t, double v, gossip::BlameReason r) {
            a->emit_blame(t, v, r);
          },
          [a = &agent](NodeId to, gossip::Message m) {
            a->send_reliable(to, std::move(m));
          },
          [a = &agent](NodeId target) {
            // Entropy-based expulsion is direct (§5.3): commit to the
            // subject's managers without the score-vote round.
            const gossip::ExpelCommitMsg commit{target, true};
            a->to_managers(target, commit,
                           [&] { a->handle_expel_commit(commit); });
          },
          [a = &agent](const AuditReport& report) {
            if (a->trace_ != nullptr) {
              const std::uint8_t failed =
                  static_cast<std::uint8_t>(
                      (report.fanout_check_failed ? 1U : 0U) |
                      (report.fanin_check_failed ? 2U : 0U) |
                      (report.rate_check_failed ? 4U : 0U));
              a->trace_->record(obs::EventKind::kAuditReport, a->self_,
                                report.subject, 0, 0.0, failed,
                                static_cast<std::uint16_t>(report.confirmed));
            }
            if (a->hooks_.on_audit_report) {
              a->hooks_.on_audit_report(a->self_, report);
            }
          }) {}

Agent::Agent(sim::Simulator& sim, gossip::Mailer& mailer,
             membership::Directory& directory, NodeId self,
             const LiftingParams& params, gossip::BehaviorSpec behavior,
             Pcg32 rng, std::uint64_t deployment_seed, TimePoint genesis,
             const Hooks& hooks, std::shared_ptr<ManagerAssignment> assignment)
    : sim_(sim),
      mailer_(mailer),
      directory_(directory),
      self_(self),
      params_(params),
      p_dcc_(params.p_dcc),
      behavior_(std::move(behavior)),
      rng_(rng),
      deployment_seed_(deployment_seed),
      genesis_(genesis),
      hooks_(hooks),
      assignment_(assignment != nullptr
                      ? std::move(assignment)
                      : std::make_shared<ManagerAssignment>(
                            directory.initial_size(), params.managers,
                            deployment_seed)),
      managers_(params, genesis),
      direct_verifier_(
          sim, params,
          [this](NodeId t, double v, gossip::BlameReason r) {
            emit_blame(t, v, r);
          }),
      cross_checker_(
          sim, params, p_dcc_, self, rng_,
          [this](NodeId t, double v, gossip::BlameReason r) {
            emit_blame(t, v, r);
          },
          [this](std::span<const NodeId> to, const gossip::Message& m) {
            mailer_.send_many(self_, to, sim::Channel::kDatagram, m);
          }) {
  if (params_.audit_probability > 0.0) {
    audit_ = make_recycled<AuditState>(*this);
  }
}

Agent::~Agent() = default;

const AuditTrail* Agent::audit_trail() const noexcept {
  return audit_ != nullptr ? &audit_->trail : nullptr;
}

Agent::AuditChannelStats Agent::audit_channel_totals() const noexcept {
  AuditChannelStats total;
  if (channel_ == nullptr) return total;
  for (const auto& s : channel_->stats_by_kind) total += s;
  return total;
}

Agent::AuditChannel& Agent::channel() {
  if (channel_ == nullptr) channel_ = make_recycled<AuditChannel>();
  return *channel_;
}

void Agent::start(Duration offset) {
  LIFTING_ASSERT(!started_, "agent started twice");
  started_ = true;
  sim_.schedule_after(offset, [this] { tick(); });
}

void Agent::audit(NodeId target) {
  require(audit_ != nullptr,
          "audit() needs an auditing deployment (audit_probability > 0)");
  audit_->auditor.start_audit(target);
}

void Agent::set_trace(obs::Recorder* trace) noexcept {
  trace_ = trace;
  direct_verifier_.set_trace(trace, self_);
  cross_checker_.set_trace(trace);
}

void Agent::tick() {
  if (stopped_) return;  // retired: do not reschedule
  const TimePoint now = sim_.now();
  const TimePoint cutoff =
      now - std::min(now.time_since_epoch(),
                     params_.effective_history_retention());
  received_log_.prune(cutoff);
  if (audit_ != nullptr) audit_->trail.prune(cutoff);

  // Adaptive cross-checking (§1): decay the working p_dcc while our own
  // verifications stay clean; snap back to the configured value when the
  // emitted-blame EWMA exceeds the loss-noise floor. The CrossChecker
  // reads p_dcc_ by reference, so changes take effect immediately.
  if (params_.adaptive_pdcc) {
    constexpr double kEwmaAlpha = 0.2;
    blame_rate_ewma_ = (1.0 - kEwmaAlpha) * blame_rate_ewma_ +
                       kEwmaAlpha * blame_emitted_this_period_;
    blame_emitted_this_period_ = 0.0;
    // A node verifies ~f peers that each receive b̃ from ~f verifiers, so
    // its own loss-noise emission floor is ≈ compensation_factor·b̃.
    analysis::ProtocolModel model = params_.model();
    model.p_dcc = p_dcc_;
    const double noise_floor = params_.compensation_factor *
                               analysis::expected_wrongful_blame(model);
    if (blame_rate_ewma_ <=
        params_.adaptive_noise_multiple * std::max(noise_floor, 0.5)) {
      p_dcc_ = std::max(params_.adaptive_min_pdcc,
                        p_dcc_ * params_.adaptive_decay);
    } else {
      p_dcc_ = params_.p_dcc;
    }
  }

  // Score-based policing: read a recent contact's score; expel if below η.
  if (params_.score_check_probability > 0.0 &&
      rng_.bernoulli(params_.score_check_probability) &&
      !recent_contacts_.empty() && old_enough_for_detection(now)) {
    const NodeId target = recent_contacts_[rng_.below(
        static_cast<std::uint32_t>(recent_contacts_.size()))];
    // View-aware: this node polices whoever *it* believes is still a
    // member — under a propagation lag that can be a recent leaver, and
    // the read then runs against whatever quorum still answers.
    if (directory_.sees(self_, target, now) && target != self_ &&
        !behavior_.colludes_with(target)) {
      score_check(target);
    }
  }

  // Sporadic local-history audits (§5.3).
  const auto age_periods =
      static_cast<std::uint32_t>((now - genesis_) / params_.period);
  if (params_.audit_probability > 0.0 &&
      age_periods >= params_.audit_warmup_periods &&
      rng_.bernoulli(params_.audit_probability)) {
    // View-aware subject pick: an auditor can select a node it does not
    // yet know has departed; the audit then times out against silence —
    // one of the wrongful-blame sources divergent views introduce.
    std::vector<std::uint32_t> indices;
    std::vector<NodeId> pick;
    membership::sample_view_into(rng_, directory_, self_, 1, now, indices,
                                 pick);
    if (!pick.empty() && !behavior_.colludes_with(pick.front())) {
      audit_->auditor.start_audit(pick.front());
    }
  }

  sim_.schedule_after(params_.period, [this] { tick(); });
}

bool Agent::old_enough_for_detection(TimePoint now) const {
  const auto age = static_cast<std::uint32_t>((now - genesis_) /
                                              params_.period);
  return age >= params_.min_periods_before_detection;
}

// --------------------------------------------------------- blame routing

void Agent::emit_blame(NodeId target, double value,
                       gossip::BlameReason reason) {
  if (value <= 0.0) return;
  // A retired node's lingering verification deadlines still fire (the
  // object outlives the departure) but a dead node testifies to nothing.
  if (stopped_) return;
  // Colluding freeriders never blame coalition members (§5.2: "if p0
  // colludes with p1, it will not blame p1").
  if (behavior_.colludes_with(target)) return;
  blame_emitted_this_period_ += value;  // feeds the adaptive p_dcc controller
  blame_emitted_total_ += value;
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kBlameEmitted, self_, target, 0, value,
                   static_cast<std::uint8_t>(reason));
  }
  if (hooks_.on_blame_emitted) {
    hooks_.on_blame_emitted(self_, target, value, reason);
  }
  const gossip::BlameMsg blame{target, value, reason};
  to_managers(target, blame, [&] { handle_blame(self_, blame); });
}

void Agent::send_datagram(NodeId to, gossip::Message msg) {
  mailer_.send(self_, to, sim::Channel::kDatagram, std::move(msg));
}

template <typename Local>
void Agent::to_managers(NodeId target, const gossip::Message& msg,
                        Local&& local) {
  const auto managers = managers_for(target);
  const auto at = static_cast<std::size_t>(
      std::find(managers.begin(), managers.end(), self_) - managers.begin());
  mailer_.send_many(self_, managers.first(at), sim::Channel::kDatagram, msg);
  if (at == managers.size()) return;
  local();
  mailer_.send_many(self_, managers.subspan(at + 1), sim::Channel::kDatagram,
                    msg);
}

// --------------------------------------- reliable-UDP audit channel

Agent::AuditChannel::Key Agent::AuditChannel::key_of(
    const gossip::Message& msg) {
  Key key;
  key.kind = static_cast<std::uint8_t>(msg.index());
  if (const auto* req = std::get_if<gossip::AuditRequestMsg>(&msg)) {
    key.audit_id = req->audit_id;
  } else if (const auto* hist = std::get_if<gossip::AuditHistoryMsg>(&msg)) {
    key.audit_id = hist->audit_id;
  } else if (const auto* poll = std::get_if<gossip::HistoryPollMsg>(&msg)) {
    key.audit_id = poll->audit_id;
    key.subject = poll->subject;
  } else if (const auto* resp =
                 std::get_if<gossip::HistoryPollRespMsg>(&msg)) {
    key.audit_id = resp->audit_id;
    key.subject = resp->subject;
  } else {
    LIFTING_ASSERT(false, "key_of on a non-audit message");
  }
  return key;
}

Duration Agent::retry_backoff(std::uint32_t attempt) {
  // attempt = transmissions already made (>= 1): base · 2^(attempt-1),
  // stretched by up to audit_retry_jitter to decorrelate peers whose
  // sends were lost by the same burst.
  Duration backoff = params_.audit_retry_base * (1ULL << (attempt - 1));
  if (params_.audit_retry_jitter > 0.0) {
    auto& retry_rng = channel_->retry_rng;
    if (!retry_rng.has_value()) {
      retry_rng = derive_rng(deployment_seed_, 0xD00000000ULL + self_.value());
    }
    const double stretch =
        1.0 + params_.audit_retry_jitter * retry_rng->uniform();
    backoff = Duration{static_cast<Duration::rep>(
        static_cast<double>(backoff.count()) * stretch)};
  }
  return backoff;
}

void Agent::arm_retry(std::uint64_t token) {
  auto& pending = channel_->pending;
  const auto it = std::find_if(
      pending.begin(), pending.end(),
      [&](const AuditChannel::Pending& p) { return p.token == token; });
  if (it == pending.end()) return;
  sim_.schedule_after(retry_backoff(it->attempts),
                      [this, token] { on_retry_timer(token); });
}

void Agent::on_retry_timer(std::uint64_t token) {
  if (stopped_) return;
  auto& pending = channel_->pending;
  const auto it = std::find_if(
      pending.begin(), pending.end(),
      [&](const AuditChannel::Pending& p) { return p.token == token; });
  if (it == pending.end()) return;  // acked meanwhile
  auto& stats = channel_->stats(it->key.kind);
  if (it->attempts > params_.audit_max_retries) {
    ++stats.give_ups;
    pending.erase(it);
    return;
  }
  ++stats.retries;
  ++it->attempts;
  mailer_.send(self_, it->to, sim::Channel::kDatagram, it->message);
  arm_retry(token);
}

void Agent::send_reliable(NodeId to, gossip::Message msg) {
  if (params_.audit_channel == LiftingParams::AuditChannel::kModeledTcp) {
    mailer_.send(self_, to, sim::Channel::kReliable, std::move(msg));
    return;
  }
  // Reliable-UDP mode: the message is a real datagram; reliability is
  // bounded retransmission until the receiver's AuditAckMsg arrives.
  auto& chan = channel();
  const auto key = AuditChannel::key_of(msg);
  const std::uint64_t token = chan.next_retry_token++;
  ++chan.stats(key.kind).sends;
  chan.pending.push_back(AuditChannel::Pending{to, key, 1, token, msg});
  mailer_.send(self_, to, sim::Channel::kDatagram, std::move(msg));
  arm_retry(token);
}

void Agent::handle_audit_ack(NodeId from, const gossip::AuditAckMsg& msg) {
  if (channel_ == nullptr) return;  // nothing was ever sent reliably
  const AuditChannel::Key key{msg.acked_kind, msg.audit_id, msg.subject};
  auto& pending = channel_->pending;
  const auto it = std::find_if(
      pending.begin(), pending.end(), [&](const AuditChannel::Pending& p) {
        return p.to == from && p.key == key;
      });
  if (it == pending.end()) return;  // late/duplicate ack
  if (key.kind >= gossip::kAuditKindFirst &&
      key.kind < gossip::kAuditKindFirst + gossip::kAuditKindCount) {
    ++channel_->stats(key.kind).acks_received;
  }
  pending.erase(it);
}

bool Agent::audit_dedup_and_ack(NodeId from, const gossip::Message& msg) {
  const auto key = AuditChannel::key_of(msg);
  // Ack every copy: the receiver cannot know whether its previous ack
  // survived, and a lost ack is exactly why the copy exists.
  send_datagram(from, gossip::AuditAckMsg{key.kind, key.audit_id,
                                          key.subject});
  auto& chan = channel();
  for (const auto& seen : chan.seen) {
    if (seen.from == from && seen.key == key) {
      ++chan.stats(key.kind).dups_suppressed;
      return true;
    }
  }
  const std::size_t cap = params_.audit_dedup_cap;
  if (chan.seen.size() < cap) {
    chan.seen.push_back(AuditChannel::Seen{from, key});
  } else {
    chan.seen[chan.seen_head] = AuditChannel::Seen{from, key};
    chan.seen_head = (chan.seen_head + 1) % cap;
  }
  return false;
}

bool Agent::blame_is_duplicate(NodeId from, const gossip::BlameMsg& msg) {
  if (params_.blame_dedup_window == Duration::zero() || from == self_) {
    return false;
  }
  const TimePoint now = sim_.now();
  const TimePoint since =
      now - std::min(now.time_since_epoch(), params_.blame_dedup_window);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(msg.value);
  for (const auto& seen : seen_blames_) {
    if (seen.from == from && seen.target == msg.target &&
        seen.reason == msg.reason && seen.value_bits == bits &&
        seen.at >= since) {
      ++blame_dups_suppressed_;
      return true;
    }
  }
  constexpr std::size_t kSeenBlamesCap = 32;
  const SeenBlame entry{from, msg.target, bits, msg.reason, now};
  if (seen_blames_.size() < kSeenBlamesCap) {
    seen_blames_.push_back(entry);
  } else {
    seen_blames_[seen_blames_head_] = entry;
    seen_blames_head_ = (seen_blames_head_ + 1) % kSeenBlamesCap;
  }
  return false;
}

std::span<const NodeId> Agent::managers_for(NodeId target) {
  return assignment_->of(target);
}

bool Agent::is_manager_of(NodeId target) {
  const auto& mgrs = managers_for(target);
  return std::find(mgrs.begin(), mgrs.end(), self_) != mgrs.end();
}

// ------------------------------------------------------- engine observer

void Agent::note_contact(NodeId id) {
  if (id == self_) return;
  if (recent_contacts_.size() >= kRecentContactsCap) {
    recent_contacts_[rng_.below(
        static_cast<std::uint32_t>(recent_contacts_.size()))] = id;
  } else {
    recent_contacts_.push_back(id);
  }
}

void Agent::on_propose_received(NodeId from, PeriodIndex period,
                                const gossip::ChunkIdList& chunks) {
  // Transport-duplicated propose: already logged. Skipping note_contact
  // matters for determinism under faults — a full contact table replaces a
  // random slot, and that draw must not depend on duplicate arrivals.
  if (received_log_.has(from, period)) return;
  received_log_.record(sim_.now(), from, period, chunks);
  note_contact(from);
}

void Agent::on_request_sent(NodeId proposer, PeriodIndex period,
                            const gossip::ChunkIdList& chunks) {
  direct_verifier_.on_request_sent(proposer, period, chunks);
}

void Agent::on_serve_received(NodeId sender, NodeId /*ack_to*/,
                              PeriodIndex period, ChunkId chunk) {
  direct_verifier_.on_serve_received(sender, period, chunk);
  note_contact(sender);
}

void Agent::on_chunks_served(NodeId receiver, PeriodIndex period,
                             const gossip::ChunkIdList& chunks) {
  cross_checker_.on_chunks_served(receiver, period, chunks);
}

void Agent::on_proposal_sent(PeriodIndex period,
                             const std::vector<NodeId>& claimed_partners,
                             const std::vector<NodeId>& /*real_partners*/,
                             const gossip::ChunkIdList& chunks) {
  // The audit-visible history must be consistent with the acks we emitted,
  // hence the *claimed* partner set (honest nodes: claimed == real).
  if (audit_ != nullptr) {
    audit_->trail.sent.record(sim_.now(), period, claimed_partners, chunks);
  }
}

void Agent::on_ack_received(NodeId from, const gossip::AckMsg& ack) {
  cross_checker_.on_ack_received(from, ack);
}

// ------------------------------------------------------ message handling

void Agent::handle(NodeId from, const gossip::Message& message) {
  if (const auto* confirm = std::get_if<gossip::ConfirmReqMsg>(&message)) {
    handle_confirm_request(from, *confirm);
  } else if (const auto* resp =
                 std::get_if<gossip::ConfirmRespMsg>(&message)) {
    cross_checker_.on_confirm_response(from, *resp);
  } else if (const auto* blame = std::get_if<gossip::BlameMsg>(&message)) {
    handle_blame(from, *blame);
  } else if (const auto* query =
                 std::get_if<gossip::ScoreQueryMsg>(&message)) {
    handle_score_query(from, *query);
  } else if (const auto* reply =
                 std::get_if<gossip::ScoreReplyMsg>(&message)) {
    handle_score_reply(from, *reply);
  } else if (const auto* expel =
                 std::get_if<gossip::ExpelRequestMsg>(&message)) {
    handle_expel_request(from, *expel);
  } else if (const auto* vote = std::get_if<gossip::ExpelVoteMsg>(&message)) {
    handle_expel_vote(from, *vote);
  } else if (const auto* commit =
                 std::get_if<gossip::ExpelCommitMsg>(&message)) {
    handle_expel_commit(*commit);
  } else if (message.index() >= gossip::kAuditKindFirst &&
             message.index() <
                 gossip::kAuditKindFirst + gossip::kAuditKindCount) {
    // Reliable-UDP mode acks every copy and suppresses re-processing of
    // duplicates (retransmissions whose first copy already arrived, or
    // fault-injected replays). Modeled TCP needs neither.
    if (params_.audit_channel == LiftingParams::AuditChannel::kReliableUdp &&
        audit_dedup_and_ack(from, message)) {
      return;
    }
    if (const auto* audit =
            std::get_if<gossip::AuditRequestMsg>(&message)) {
      handle_audit_request(from, *audit);
    } else if (const auto* history =
                   std::get_if<gossip::AuditHistoryMsg>(&message)) {
      // A node that does not audit started no audit: nothing to match.
      if (audit_ != nullptr) audit_->auditor.on_history(from, *history);
    } else if (const auto* poll =
                   std::get_if<gossip::HistoryPollMsg>(&message)) {
      handle_history_poll(from, *poll);
    } else if (const auto* poll_resp =
                   std::get_if<gossip::HistoryPollRespMsg>(&message)) {
      if (audit_ != nullptr) {
        audit_->auditor.on_poll_response(from, *poll_resp);
      }
    }
  } else if (const auto* ack = std::get_if<gossip::AuditAckMsg>(&message)) {
    handle_audit_ack(from, *ack);
  } else {
    LIFTING_ASSERT(false, "gossip message routed to Agent");
  }
}

void Agent::handle_confirm_request(NodeId from,
                                   const gossip::ConfirmReqMsg& msg) {
  // Record the asker — the F'_h trail polled by auditors (§5.3).
  if (audit_ != nullptr) {
    audit_->trail.askers.record(sim_.now(), msg.subject, from);
  }
  bool confirmed;
  if (behavior_.collusion.has_value() && behavior_.collusion->cover_up &&
      behavior_.colludes_with(msg.subject)) {
    confirmed = true;  // coalition members cover each other up
  } else {
    const auto window = params_.period * kConfirmWindowPeriods;
    const TimePoint since =
        sim_.now() - std::min(sim_.now().time_since_epoch(), window);
    confirmed = received_log_.confirms(msg.subject, msg.chunks, since);
  }
  send_datagram(from, gossip::ConfirmRespMsg{msg.subject, msg.subject_period,
                                             confirmed});
}

void Agent::handle_blame(NodeId from, const gossip::BlameMsg& msg) {
  if (!is_manager_of(msg.target)) return;  // stray blame: ignore
  // A colluding manager shields its coalition: it silently drops blames
  // against coalition members (countered by the min-vote read).
  if (behavior_.colludes_with(msg.target)) return;
  if (blame_is_duplicate(from, msg)) return;
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kBlameApplied, self_, msg.target,
                   from.value(), msg.value,
                   static_cast<std::uint8_t>(msg.reason));
  }
  managers_.apply_blame(msg.target, msg.value, msg.reason);
}

void Agent::handle_score_query(NodeId from, const gossip::ScoreQueryMsg& msg) {
  if (!is_manager_of(msg.target)) return;
  double score = managers_.normalized_score(msg.target, sim_.now());
  bool expelled = managers_.expelled(msg.target);
  if (behavior_.colludes_with(msg.target)) {
    // Colluding manager inflates the coalition's scores (§5.1) — the
    // min-vote makes this ineffective as long as one honest manager
    // answers.
    score = std::max(score, kInflatedScore);
    expelled = false;
  }
  send_datagram(from,
                gossip::ScoreReplyMsg{msg.target, msg.query_id, score,
                                      expelled});
}

void Agent::score_check(NodeId target) { begin_score_read(target, {}); }

void Agent::probe_score(NodeId target, ScoreFeedbackFn on_done) {
  if (stopped_) {
    // A retired incarnation probes nothing; answer "no replies" so the
    // caller's in-flight bookkeeping still resolves.
    if (on_done) on_done(ScoreFeedback{});
    return;
  }
  begin_score_read(target, std::move(on_done));
}

void Agent::begin_score_read(NodeId target, ScoreFeedbackFn probe) {
  const std::uint32_t query_id = next_query_id_++;
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kScoreRead, self_, target, query_id, 0.0,
                   probe ? 1 : 0);
  }
  score_reads_.emplace(
      query_id, PendingScoreRead{target, {}, {}, false, std::move(probe)});
  to_managers(target, gossip::ScoreQueryMsg{target, query_id}, [&] {
    auto& read = score_reads_.at(query_id);
    read.replies.push_back(managers_.normalized_score(target, sim_.now()));
    read.target_already_expelled |= managers_.expelled(target);
  });
  sim_.schedule_after(params_.score_reply_timeout,
                      [this, query_id] { finish_score_read(query_id); });
}

void Agent::handle_score_reply(NodeId from, const gossip::ScoreReplyMsg& msg) {
  const auto it = score_reads_.find(msg.query_id);
  if (it == score_reads_.end() || it->second.target != msg.target) return;
  auto& read = it->second;
  if (std::find(read.repliers.begin(), read.repliers.end(), from) !=
      read.repliers.end()) {
    return;  // transport-duplicated reply: one ballot per manager
  }
  read.repliers.push_back(from);
  read.replies.push_back(msg.normalized_score);
  read.target_already_expelled |= msg.expelled;
}

void Agent::finish_score_read(std::uint32_t query_id) {
  const auto it = score_reads_.find(query_id);
  if (it == score_reads_.end()) return;
  const auto read = it->second;
  score_reads_.erase(it);
  if (read.probe) {
    // Feedback read: report what the managers answered and stop — probes
    // never feed the expulsion protocol. A read that outlived its
    // incarnation (the node retired mid-flight) reports zero replies so
    // cross-incarnation estimates cannot leak.
    ScoreFeedback feedback;
    if (!stopped_) {
      feedback.replies = read.replies.size();
      feedback.expelled_hint = read.target_already_expelled;
      if (!read.replies.empty()) {
        feedback.score =
            *std::min_element(read.replies.begin(), read.replies.end());
      }
    }
    read.probe(feedback);
    return;
  }
  if (read.target_already_expelled) return;  // nothing to do
  if (read.replies.size() < params_.min_score_replies) return;
  // Min-vote (§5.1) by default: the most pessimistic manager saw the most
  // blames; colluding managers inflating a coalition member's score are
  // outvoted by any one honest manager.
  double score;
  if (params_.score_vote == LiftingParams::ScoreVote::kMin) {
    score = *std::min_element(read.replies.begin(), read.replies.end());
  } else {
    score = 0.0;
    for (const double s : read.replies) score += s;
    score /= static_cast<double>(read.replies.size());
  }
  if (score >= params_.eta) return;
  if (!expel_requested_.insert(read.target).second) return;  // in flight
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kExpelRequest, self_, read.target, 0,
                   score);
  }
  auto& vote = expel_votes_[read.target];
  vote = PendingExpelVote{};
  vote.total_managers = managers_for(read.target).size();
  to_managers(read.target, gossip::ExpelRequestMsg{read.target, score}, [&] {
    const bool agree = managers_.normalized_score(read.target, sim_.now()) <
                       params_.eta * (1.0 - params_.expel_slack);
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kExpelVote, self_, read.target, 0, 0.0,
                     agree ? 1 : 0);
    }
    if (agree) ++vote.yes;
  });
  sim_.schedule_after(params_.expel_vote_timeout, [this, t = read.target] {
    finish_expel_vote(t);
  });
}

void Agent::handle_expel_request(NodeId from,
                                 const gossip::ExpelRequestMsg& msg) {
  if (!is_manager_of(msg.target)) return;
  bool agree = managers_.expelled(msg.target) ||
               managers_.normalized_score(msg.target, sim_.now()) <
                   params_.eta * (1.0 - params_.expel_slack);
  if (behavior_.colludes_with(msg.target)) agree = false;
  send_datagram(from, gossip::ExpelVoteMsg{msg.target, agree});
}

void Agent::handle_expel_vote(NodeId from, const gossip::ExpelVoteMsg& msg) {
  const auto it = expel_votes_.find(msg.target);
  if (it == expel_votes_.end() || it->second.committed) return;
  auto& vote = it->second;
  if (std::find(vote.voters.begin(), vote.voters.end(), from) !=
      vote.voters.end()) {
    return;  // transport-duplicated ballot: one vote per manager
  }
  vote.voters.push_back(from);
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kExpelVote, from, msg.target, 0, 0.0,
                   msg.agree ? 1 : 0);
  }
  if (msg.agree) ++vote.yes;
}

void Agent::finish_expel_vote(NodeId target) {
  const auto it = expel_votes_.find(target);
  if (it == expel_votes_.end() || it->second.committed) return;
  const bool majority = it->second.yes * 2 > it->second.total_managers;
  it->second.committed = true;
  if (!majority) {
    expel_votes_.erase(it);
    expel_requested_.erase(target);  // allow a later retry
    return;
  }
  const gossip::ExpelCommitMsg commit{target, false};
  to_managers(target, commit, [&] { handle_expel_commit(commit); });
  expel_votes_.erase(target);
  // The request latch only serializes rounds — it must not outlive this
  // one. A committed expulsion normally takes effect (the target drops out
  // of recent contacts and later reads return the expelled mark, so a
  // retry is naturally bounded); but when the commit fails to take hold —
  // the managers refuse corroboration because the target's incarnation
  // changed mid-vote (a whitewasher bouncing through the pipeline,
  // DESIGN.md §8) — the checker must be able to indict again next time
  // its read comes back bad, exactly as a live deployment would.
  expel_requested_.erase(target);
}

void Agent::handle_expel_commit(const gossip::ExpelCommitMsg& msg) {
  if (!is_manager_of(msg.target)) return;
  if (behavior_.colludes_with(msg.target)) return;
  // Audit expulsions are authoritative (§5.3: a failed entropy check expels
  // directly); score expulsions require local corroboration so a single
  // lying observer cannot evict a healthy node.
  if (!msg.from_audit) {
    const bool corroborated =
        managers_.normalized_score(msg.target, sim_.now()) <
        params_.eta * (1.0 - params_.expel_slack);
    if (!corroborated) return;
  }
  if (managers_.mark_expelled(msg.target)) {
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kExpelCommit, self_, msg.target, 0, 0.0,
                     msg.from_audit ? 1 : 0);
    }
    if (hooks_.on_expulsion_committed) {
      hooks_.on_expulsion_committed(msg.target, self_, msg.from_audit);
    }
  }
}

void Agent::handle_audit_request(NodeId from,
                                 const gossip::AuditRequestMsg& msg) {
  ++audit_requests_received_;
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kAuditServed, self_, from, msg.audit_id);
  }
  // Without a trail (a stray or hostile request in a deployment that does
  // not audit) the reply is an empty history.
  std::vector<gossip::HistoryProposalRecord> records;
  if (audit_ != nullptr) records = audit_->trail.sent.snapshot();
  if (behavior_.lie_in_history && behavior_.collusion.has_value()) {
    // Replace coalition partners with random live nodes: beats the entropy
    // check, but the substituted nodes will deny the claims during the
    // a-posteriori cross-check (§5.3).
    std::vector<std::uint32_t> indices;
    std::vector<NodeId> substitute;
    for (auto& rec : records) {
      for (auto& partner : rec.partners) {
        if (!behavior_.collusion->contains(partner)) continue;
        membership::sample_uniform_into(rng_, directory_, self_, 1, indices,
                                        substitute);
        if (!substitute.empty()) partner = substitute.front();
      }
    }
  }
  send_reliable(from, gossip::AuditHistoryMsg{msg.audit_id, std::move(records)});
}

void Agent::handle_history_poll(NodeId from,
                                const gossip::HistoryPollMsg& msg) {
  std::uint32_t confirmed = 0;
  std::uint32_t denied = 0;
  const bool cover = behavior_.collusion.has_value() &&
                     behavior_.collusion->cover_up &&
                     behavior_.colludes_with(msg.subject);
  for (const auto& claim : msg.claims) {
    if (cover || received_log_.confirms(msg.subject, claim.chunks,
                                        kSimEpoch)) {
      ++confirmed;
    } else {
      ++denied;
    }
  }
  std::vector<NodeId> askers;
  if (audit_ != nullptr) {
    askers = audit_->trail.askers.askers_about(msg.subject);
  }
  send_reliable(from, gossip::HistoryPollRespMsg{msg.audit_id, msg.subject,
                                                 confirmed, denied,
                                                 std::move(askers)});
}

}  // namespace lifting
