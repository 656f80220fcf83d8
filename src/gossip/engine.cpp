#include "gossip/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "membership/rps.hpp"
#include "membership/sampler.hpp"
#include "obs/trace.hpp"

namespace lifting::gossip {

namespace {

/// The served-partner bitmask of a sent proposal has one bit per partner.
constexpr std::size_t kMaxFanout = 32;

/// One served chunk owed an ack: (ack target, receive seq, chunk).
struct AckRow {
  NodeId target{};
  std::uint32_t seq = 0;
  ChunkId chunk{};
};

}  // namespace

Engine::Engine(sim::Simulator& sim, Mailer& mailer,
               membership::Directory& directory, NodeId self,
               GossipParams params, BehaviorSpec behavior, Pcg32 rng,
               EngineObserver* observer)
    : sim_(sim),
      mailer_(mailer),
      directory_(directory),
      self_(self),
      params_(params),
      behavior_(behavior),
      rng_(rng),
      observer_(observer) {
  require(params_.fanout >= 1, "fanout must be >= 1");
  require(params_.fanout <= kMaxFanout, "fanout must be <= 32");
  require(params_.period > Duration::zero(), "gossip period must be positive");
  if (behavior_.collusion.has_value()) {
    require(behavior_.collusion->bias_pm >= 0.0 &&
                behavior_.collusion->bias_pm <= 1.0,
            "bias p_m must be in [0,1]");
  }
}

void Engine::set_behavior(BehaviorSpec behavior) {
  if (behavior.collusion.has_value()) {
    require(behavior.collusion->bias_pm >= 0.0 &&
                behavior.collusion->bias_pm <= 1.0,
            "bias p_m must be in [0,1]");
  }
  behavior_ = std::move(behavior);
}

void Engine::start(Duration initial_offset) {
  LIFTING_ASSERT(!running_, "engine started twice");
  running_ = true;
  sim_.schedule_after(initial_offset, [this] { propose_phase(); });
}

void Engine::schedule_next_phase() {
  // Attack (iv), §4.1: a freerider stretches its gossip period, proposing
  // less frequently (and therefore staler, less interesting chunks).
  const double factor = 1.0 + behavior_.period_stretch;
  const auto delay = Duration{static_cast<Duration::rep>(
      static_cast<double>(params_.period.count()) * factor)};
  sim_.schedule_after(delay, [this] { propose_phase(); });
}

void Engine::add_chunk(ChunkId id, std::uint32_t payload_bytes) {
  LIFTING_ASSERT(payload_bytes != kNotHeld, "unrepresentable payload size");
  // The delivery log's presence bit doubles as the held-set; payload sizes
  // collapse to the first-seen default (CBR streams emit constant-size
  // chunks) plus an exception list for odd-sized ones. The exception list
  // is never pruned — it stays empty on every in-tree stream shape.
  if (default_payload_ == kNotHeld) {
    default_payload_ = payload_bytes;
  } else if (payload_bytes != default_payload_) {
    payload_exceptions_.emplace_back(id, payload_bytes);
  }
  delivery_log_.record(id, sim_.now());
}

void Engine::inject_chunk(const ChunkMeta& chunk) {
  if (has_chunk(chunk.id)) return;
  add_chunk(chunk.id, chunk.payload_bytes);
  fresh_.push_slot() = FreshChunk{chunk.id, self_, /*has_origin=*/false,
                                  chunk.payload_bytes};
}

void Engine::handle(NodeId from, const Message& message) {
  // Honest nodes ignore traffic from expelled nodes; freeriders have no
  // incentive to talk to them either (expelled nodes cannot reciprocate).
  // Under divergent views (DESIGN.md §7) the test is what *this* node
  // currently believes: a joiner it has not yet learned of is ignored too.
  if (!directory_.sees(self_, from, sim_.now())) return;
  if (const auto* propose = std::get_if<ProposeMsg>(&message)) {
    handle_propose(from, *propose);
  } else if (const auto* request = std::get_if<RequestMsg>(&message)) {
    handle_request(from, *request);
  } else if (const auto* serve = std::get_if<ServeMsg>(&message)) {
    handle_serve(from, *serve);
  } else if (const auto* ack = std::get_if<AckMsg>(&message)) {
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kAckReceived, self_, from, ack->period,
                     0.0, 0, static_cast<std::uint16_t>(ack->partners.size()));
    }
    if (observer_ != nullptr) observer_->on_ack_received(from, *ack);
  } else {
    LIFTING_ASSERT(false, "non-gossip message routed to Engine");
  }
}

void Engine::handle_propose(NodeId from, const ProposeMsg& msg) {
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kProposeReceived, self_, from, msg.period,
                   0.0, 0, static_cast<std::uint16_t>(msg.chunks.size()));
  }
  if (observer_ != nullptr) {
    observer_->on_propose_received(from, msg.period, msg.chunks);
  }
  // Request phase: ask for the proposed chunks we neither hold nor have
  // already requested from another proposer (re-requestable after timeout).
  ChunkIdList needed;
  needed.reserve(msg.chunks.size());
  const TimePoint now = sim_.now();
  for (const auto chunk : msg.chunks) {
    if (has_chunk(chunk)) continue;
    if (pending_deadline(chunk) > now) continue;
    needed.push_back(chunk);
  }
  if (needed.empty()) return;
  // Balance requests across proposers: take at most the cap from this
  // proposal and leave the rest to the other ~f proposals arriving this
  // period. Oldest chunks first — they have the fewest remaining
  // propose opportunities under infect-and-die, so greedy aging avoids
  // starvation (the rarest-first principle of swarming systems).
  if (params_.max_request_per_proposal > 0 &&
      needed.size() > params_.max_request_per_proposal) {
    const auto cap = static_cast<std::ptrdiff_t>(params_.max_request_per_proposal);
    std::nth_element(needed.begin(), needed.begin() + cap, needed.end());
    needed.resize(params_.max_request_per_proposal);
    std::sort(needed.begin(), needed.end());
  }
  for (const auto chunk : needed) {
    pending_.add(chunk, now + params_.request_timeout, now);
  }
  ++stats_.requests_sent;
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kRequestSent, self_, from, msg.period,
                   0.0, 0, static_cast<std::uint16_t>(needed.size()));
  }
  if (observer_ != nullptr) {
    observer_->on_request_sent(from, msg.period, needed);
  }
  mailer_.send(self_, from, sim::Channel::kDatagram,
               RequestMsg{msg.period, needed});
}

void Engine::handle_request(NodeId from, const RequestMsg& msg) {
  // Serve only chunks that were effectively proposed to this requester in
  // this period (§3: invalid requests are ignored). Records are indexed by
  // period (one per propose phase, newest last), so the lookup scans a
  // handful of records from the most recent backwards.
  SentProposal* match = nullptr;
  std::uint32_t partner_bit = 0;
  for (std::size_t i = sent_proposals_.size(); i-- > 0;) {
    SentProposal& rec = sent_proposals_[i];
    if (rec.period < msg.period) break;
    if (rec.period == msg.period) {
      const auto it =
          std::find(rec.partners.begin(), rec.partners.end(), from);
      if (it != rec.partners.end()) {
        match = &rec;
        partner_bit = 1U << (it - rec.partners.begin());
      }
      break;
    }
  }
  if (match == nullptr) {
    ++stats_.invalid_requests;
    return;
  }
  if ((match->served & partner_bit) != 0) {
    // Transport-duplicated request: the batch already went out. Serving
    // again would waste uplink and (for partial-serve behaviors) draw rng
    // on a duplicate arrival.
    ++stats_.duplicate_requests;
    return;
  }
  ChunkIdList valid;
  for (const auto chunk : msg.chunks) {
    if (std::find(match->chunks.begin(), match->chunks.end(), chunk) !=
        match->chunks.end()) {
      valid.push_back(chunk);
    }
  }
  if (valid.empty()) return;
  match->served |= partner_bit;

  // Attack: partial serve — serve only (1-δ3)·|R| of the valid request.
  std::size_t serve_count = valid.size();
  if (behavior_.delta_serve > 0.0) {
    serve_count = std::min<std::size_t>(
        valid.size(),
        round_randomized(rng_, (1.0 - behavior_.delta_serve) *
                                   static_cast<double>(valid.size())));
    rng_.shuffle(valid);
  }
  ChunkIdList served(valid.begin(),
                     valid.begin() + static_cast<std::ptrdiff_t>(serve_count));

  const NodeId ack_target = choose_ack_target();
  for (const auto chunk : served) {
    const std::uint32_t payload_bytes = held_payload_bytes(chunk);
    LIFTING_ASSERT(payload_bytes != kNotHeld, "proposed a chunk we do not hold");
    mailer_.send(self_, from, sim::Channel::kDatagram,
                 ServeMsg{msg.period, chunk, payload_bytes, ack_target});
  }
  stats_.chunks_served += served.size();
  if (trace_ != nullptr && !served.empty()) {
    trace_->record(obs::EventKind::kChunksServed, self_, from, msg.period,
                   0.0, 0, static_cast<std::uint16_t>(served.size()));
  }
  if (observer_ != nullptr && !served.empty()) {
    observer_->on_chunks_served(from, msg.period, served);
  }
}

NodeId Engine::choose_ack_target() {
  // MITM (§5.2, Fig. 8b): route the receiver's acknowledgment to a live
  // coalition member so the verification trail bypasses us.
  if (behavior_.collusion.has_value() && behavior_.collusion->mitm) {
    std::vector<NodeId> live;
    for (const auto id : behavior_.collusion->coalition) {
      if (id != self_ && directory_.is_live(id)) live.push_back(id);
    }
    if (!live.empty()) {
      return live[rng_.below(static_cast<std::uint32_t>(live.size()))];
    }
  }
  return self_;
}

void Engine::handle_serve(NodeId from, const ServeMsg& msg) {
  if (has_chunk(msg.chunk)) {
    ++stats_.duplicate_serves;
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kServeReceived, self_, from,
                     msg.chunk.value(), 0.0, /*detail=*/1);
    }
    return;
  }
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kServeReceived, self_, from,
                   msg.chunk.value());
  }
  add_chunk(msg.chunk, msg.payload_bytes);
  pending_.clear(msg.chunk);
  fresh_.push_slot() = FreshChunk{msg.chunk, msg.ack_to, /*has_origin=*/true,
                                  msg.payload_bytes};
  ++stats_.chunks_received;
  if (observer_ != nullptr) {
    observer_->on_serve_received(from, msg.ack_to, msg.period, msg.chunk);
  }
}

void Engine::pick_partners_into(std::size_t count, std::vector<NodeId>& out) {
  if (behavior_.collusion.has_value() && behavior_.collusion->bias_pm > 0.0) {
    // Colluding freeriders coordinate out of band, so their biased
    // selection keeps the shared view (the coalition always knows who of
    // its own is up); only honest selection diverges under view lag.
    // (Allocating is fine here — the zero-allocation steady state is the
    // honest path's contract.)
    const auto partners = membership::sample_biased(
        rng_, directory_, self_, count, behavior_.collusion->coalition,
        behavior_.collusion->bias_pm);
    out.assign(partners.begin(), partners.end());
    return;
  }
  if (rps_view_ != nullptr) {
    // RPS-driven selection (DESIGN.md §12): the candidate pool is this
    // node's partial view, filtered through its membership view (a partner
    // the node has not yet heard departed stays selectable — same wrongful
    // blame window as the directory path). Partial Fisher-Yates over the
    // pool; falls back to the directory below only when the view is empty
    // (a freshly-joined node before its first shuffle round).
    rps_pool_scratch_.clear();
    for (const auto id : rps_view_->view_of(self_)) {
      if (directory_.sees(self_, id, sim_.now())) rps_pool_scratch_.push_back(id);
    }
    if (!rps_pool_scratch_.empty()) {
      auto& pool = rps_pool_scratch_;
      const std::size_t take = std::min(count, pool.size());
      out.clear();
      for (std::size_t i = 0; i < take; ++i) {
        const auto j = i + rng_.below(static_cast<std::uint32_t>(
                               pool.size() - i));
        std::swap(pool[i], pool[j]);
        out.push_back(pool[i]);
      }
      return;
    }
  }
  // View-aware: with a membership-propagation lag this node may still
  // select a recently-departed partner (wrongful blame follows when the
  // silence is verified) and cannot yet select joiners it has not heard
  // of. Identical to sample_uniform_into when the view model is off.
  membership::sample_view_into(rng_, directory_, self_, count, sim_.now(),
                               sample_index_scratch_, out);
}

void Engine::propose_phase() {
  if (!running_) return;
  ++period_;
  prune_sent_proposals();

  // Propose the chunks received since the last propose phase, then forget
  // them: infect-and-die means each chunk is proposed in exactly one phase
  // (§3). Nothing the phase does delivers a serve synchronously, so fresh_
  // is read in place.
  if (!fresh_.empty()) {
    // Attack: partial propose — drop the chunks received from a fraction δ2
    // of this period's servers (whole servers: the blame-minimizing choice,
    // §6.3.1 footnote). The dropped set is the shuffled prefix of the
    // server scratch; membership tests scan that prefix.
    std::size_t dropped_count = 0;
    servers_scratch_.clear();
    if (behavior_.delta_propose > 0.0) {
      RecycledVector<NodeId>& servers = servers_scratch_;
      for (std::size_t i = 0; i < fresh_.size(); ++i) {
        const FreshChunk& c = fresh_[i];
        if (c.has_origin &&
            std::find(servers.begin(), servers.end(), c.ack_to) ==
                servers.end()) {
          servers.push_back(c.ack_to);
        }
      }
      dropped_count = std::min<std::size_t>(
          servers.size(),
          round_randomized(rng_, behavior_.delta_propose *
                                     static_cast<double>(servers.size())));
      rng_.shuffle(servers);
    }
    const auto dropped_end =
        servers_scratch_.begin() + static_cast<std::ptrdiff_t>(dropped_count);
    const auto is_dropped = [&](NodeId id) {
      return std::find(servers_scratch_.begin(), dropped_end, id) !=
             dropped_end;
    };

    ChunkIdList proposal;
    proposal.reserve(fresh_.size());
    for (std::size_t i = 0; i < fresh_.size(); ++i) {
      const FreshChunk& c = fresh_[i];
      if (c.has_origin && is_dropped(c.ack_to)) continue;
      proposal.push_back(c.id);
    }

    {
      // Attack: fanout decrease — contact only (1-δ1)·f partners.
      std::size_t fanout = params_.fanout;
      if (behavior_.delta_fanout > 0.0) {
        fanout = std::min<std::size_t>(
            fanout, round_randomized(
                        rng_, (1.0 - behavior_.delta_fanout) *
                                  static_cast<double>(params_.fanout)));
      }
      pick_partners_into(fanout, partners_scratch_);
      const std::vector<NodeId>& partners = partners_scratch_;
      if (!proposal.empty()) {
        LIFTING_ASSERT(partners.size() <= kMaxFanout,
                       "more partners than the served bitmask holds");
        SentProposal& rec = sent_proposals_.push_slot();
        rec.period = period_;
        rec.served = 0;  // recycled slot: forget the old period's serves
        rec.at = sim_.now();
        rec.chunks.assign(proposal.begin(), proposal.end());
        rec.partners.assign(partners.begin(), partners.end());
        mailer_.send_many(self_, partners, sim::Channel::kDatagram,
                          ProposeMsg{period_, proposal});
        ++stats_.proposals_sent;
        if (trace_ != nullptr) {
          trace_->record(obs::EventKind::kProposeSent, self_, self_, period_,
                         0.0,
                         static_cast<std::uint8_t>(partners.size()),
                         static_cast<std::uint16_t>(proposal.size()));
        }
      }

      // Cross-checking ack: what we *claim* our partner set was. A MITM
      // freerider claims coalition members so the verifier's confirms land
      // on nodes that cover for it.
      claimed_scratch_.assign(partners.begin(), partners.end());
      std::vector<NodeId>& claimed = claimed_scratch_;
      if (behavior_.collusion.has_value() && behavior_.collusion->mitm) {
        claimed.clear();
        std::vector<NodeId> live;
        for (const auto id : behavior_.collusion->coalition) {
          if (id != self_ && directory_.is_live(id)) live.push_back(id);
        }
        rng_.shuffle(live);
        for (std::size_t i = 0; i < params_.fanout && i < live.size(); ++i) {
          claimed.push_back(live[i]);
        }
        // Build the fake F'_h trail (Fig. 8b): a coalition member sends
        // confirm requests about us to our real partners, so their
        // asker records point into the coalition instead of at our servers.
        if (!live.empty() && !proposal.empty()) {
          for (const auto partner : partners) {
            const NodeId colluder =
                live[rng_.below(static_cast<std::uint32_t>(live.size()))];
            if (colluder == partner) continue;  // biased selection can pick
                                                // coalition partners
            mailer_.send(colluder, partner, sim::Channel::kDatagram,
                         ConfirmReqMsg{self_, period_, proposal});
          }
        }
      }

      send_acks(period_, claimed);
      if (observer_ != nullptr) {
        observer_->on_proposal_sent(period_, claimed, partners, proposal);
      }
    }
  }

  fresh_.clear();
  schedule_next_phase();
}

void Engine::send_acks(PeriodIndex period,
                       const std::vector<NodeId>& claimed_partners) {
  if (!params_.emit_acks) return;
  // Group the served chunks by acknowledgment target. A freerider's ack
  // always claims every served chunk was proposed — openly admitting a drop
  // (δ2) would be self-incriminating; the lie is only caught by the
  // witnesses' contradictory testimonies (§5.2).
  //
  // Grouping sorts (target, seq, chunk) rows: acks go out in ascending
  // target-id order with each one's chunks in receive order (the seq ties
  // the sort to append order — a total order, so plain std::sort
  // reproduces what a stable sort by target alone would, without
  // stable_sort's temporary buffer). The rows live in one buffer per
  // thread, shared by every engine on it: it grows to the largest phase
  // the thread has seen, then the ack path is allocation-free. It is held
  // for the thread's whole life, so a plain std::vector: the block pool
  // would never see its blocks come back before thread exit.
  thread_local std::vector<AckRow> rows;
  rows.clear();
  const TimePoint ack_now = sim_.now();
  for (std::size_t i = 0; i < fresh_.size(); ++i) {
    const FreshChunk& c = fresh_[i];
    if (!c.has_origin) continue;  // source-injected: nobody to acknowledge
    // View-aware liveness: a laggard keeps acking a server it believes
    // alive (the datagram vanishes at the dead endpoint).
    if (c.ack_to == self_ || !directory_.sees(self_, c.ack_to, ack_now)) {
      continue;
    }
    rows.push_back({c.ack_to, static_cast<std::uint32_t>(rows.size()), c.id});
  }
  std::sort(rows.begin(), rows.end(),
            [](const AckRow& a, const AckRow& b) {
              if (a.target != b.target) return a.target < b.target;
              return a.seq < b.seq;
            });
  for (std::size_t i = 0; i < rows.size();) {
    AckMsg ack;
    ack.period = period;
    const NodeId target = rows[i].target;
    for (; i < rows.size() && rows[i].target == target; ++i) {
      ack.chunks.push_back(rows[i].chunk);
    }
    ack.partners.assign(claimed_partners.begin(), claimed_partners.end());
    mailer_.send(self_, target, sim::Channel::kDatagram, std::move(ack));
  }
}

void Engine::prune_sent_proposals() {
  const auto horizon =
      params_.period * params_.proposal_retention_periods;
  const TimePoint cutoff =
      sim_.now() - std::min(sim_.now().time_since_epoch(), horizon);
  while (!sent_proposals_.empty() && sent_proposals_.front().at < cutoff) {
    sent_proposals_.pop_front();
  }
}

}  // namespace lifting::gossip
