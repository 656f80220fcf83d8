#include "lifting/verifier.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace lifting {

namespace {

/// Sorted-unique insert into a ChunkIdSet — the std::set semantics the
/// verification trackers rely on, without the per-element node allocation.
void insert_sorted_unique(ChunkIdSet& list, ChunkId c) {
  const auto it = std::lower_bound(list.begin(), list.end(), c);
  if (it == list.end() || *it != c) list.insert(it, c);
}

void erase_sorted(ChunkIdSet& list, ChunkId c) {
  const auto it = std::lower_bound(list.begin(), list.end(), c);
  if (it != list.end() && *it == c) list.erase(it, it + 1);
}

}  // namespace

// ------------------------------------------------------- DirectVerifier

namespace {
constexpr auto kPendingKeyLess = [](const auto& p, const auto& k) {
  return p.key < k;
};
}  // namespace

DirectVerifier::Pending* DirectVerifier::find_pending(const Key& key) {
  const auto it = std::lower_bound(pending_.begin(), pending_.end(), key,
                                   kPendingKeyLess);
  return it != pending_.end() && it->key == key ? &*it : nullptr;
}

void DirectVerifier::on_request_sent(NodeId proposer, PeriodIndex period,
                                     const gossip::ChunkIdList& chunks) {
  if (chunks.empty()) return;
  const Key key{proposer, period};
  // One binary search serves both the hit and the miss: lower_bound is
  // simultaneously the lookup answer and the sorted insert position.
  auto it = std::lower_bound(pending_.begin(), pending_.end(), key,
                             kPendingKeyLess);
  if (it == pending_.end() || it->key != key) {
    it = pending_.insert(it, Pending{key, {}, 0});
  }
  for (const auto c : chunks) insert_sorted_unique(it->outstanding, c);
  it->requested += chunks.size();
  sim_.schedule_after(params_.dv_timeout, [this, key] { on_deadline(key); });
}

void DirectVerifier::on_serve_received(NodeId sender, PeriodIndex period,
                                       ChunkId chunk) {
  Pending* pending = find_pending(Key{sender, period});
  if (pending == nullptr) return;
  erase_sorted(pending->outstanding, chunk);
}

void DirectVerifier::on_deadline(Key key) {
  Pending* pending = find_pending(key);
  if (pending == nullptr) return;
  // Blame f/|R| per chunk requested but never served (§5.2, Table 1);
  // |R| is this request's actual size.
  if (!pending->outstanding.empty()) {
    const double value = static_cast<double>(params_.fanout) *
                         static_cast<double>(pending->outstanding.size()) /
                         static_cast<double>(pending->requested);
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kVerdictUnserved, trace_self_,
                     key.proposer, key.period, value, 0,
                     static_cast<std::uint16_t>(pending->outstanding.size()));
    }
    blame_(key.proposer, value, gossip::BlameReason::kDirectVerification);
  }
  ++completed_;
  pending_.erase(pending_.begin() + (pending - pending_.data()));
}

// --------------------------------------------------------- CrossChecker

namespace {
constexpr auto kEntryKeyLess = [](const auto& entry, const auto& key) {
  return entry.key() < key;
};
}  // namespace

CrossChecker::Batch* CrossChecker::find_batch(NodeId receiver,
                                              PeriodIndex serve_period) {
  const auto key = std::make_pair(receiver, serve_period);
  const auto it = std::lower_bound(batches_.begin(), batches_.end(), key,
                                   kEntryKeyLess);
  return it != batches_.end() && it->key() == key ? &*it : nullptr;
}

CrossChecker::ConfirmRound* CrossChecker::find_round(
    NodeId subject, PeriodIndex subject_period) {
  const auto key = std::make_pair(subject, subject_period);
  const auto it =
      std::lower_bound(rounds_.begin(), rounds_.end(), key, kEntryKeyLess);
  return it != rounds_.end() && it->key() == key ? &*it : nullptr;
}

void CrossChecker::on_chunks_served(NodeId receiver, PeriodIndex period,
                                    const gossip::ChunkIdList& chunks) {
  const auto key = std::make_pair(receiver, period);
  // One binary search is both the lookup and the sorted insert position.
  auto it = std::lower_bound(batches_.begin(), batches_.end(), key,
                             kEntryKeyLess);
  if (it == batches_.end() || it->key() != key) {
    it = batches_.insert(it, Batch{receiver, period, {}, false, 0});
  }
  auto& batch = *it;
  batch.generation = ++generation_;
  for (const auto c : chunks) insert_sorted_unique(batch.chunks, c);
  const auto generation = batch.generation;
  sim_.schedule_after(params_.ack_timeout,
                      [this, receiver, period, generation] {
                        on_ack_deadline(receiver, period, generation);
                      });
}

void CrossChecker::on_ack_received(NodeId from, const gossip::AckMsg& ack) {
  // Unsolicited acks (we served this node nothing) carry no weight.
  const bool expected = std::any_of(
      batches_.begin(), batches_.end(),
      [&](const Batch& b) { return b.receiver == from; });
  if (!expected) return;

  // Fanout check happens once per (receiver, propose phase): the ack
  // asserts the receiver's partner set for one propose phase (§5.2,
  // Table 1: blame f - f̂). A transport-duplicated ack re-asserts the same
  // phase and must not blame twice.
  const auto fanout_key = std::make_pair(from, ack.period);
  const auto checked_it = std::lower_bound(
      fanout_checked_.begin(), fanout_checked_.end(), fanout_key);
  if (checked_it == fanout_checked_.end() || *checked_it != fanout_key) {
    // Bound the table against the advancing period horizon: anything
    // older than the in-flight window (ack_timeout spans ~2 periods) can
    // no longer be duplicated by a delay/reorder fault worth modeling.
    // Pruning each time the table doubles keeps it within about twice
    // the window at amortized O(1) per insert.
    constexpr PeriodIndex kFanoutCheckedWindow = 16;
    if (fanout_checked_.size() >= fanout_prune_at_) {
      std::erase_if(fanout_checked_, [&](const auto& e) {
        return e.second + kFanoutCheckedWindow < ack.period;
      });
      fanout_prune_at_ =
          std::max(kFanoutPruneFloor, 2 * fanout_checked_.size());
    }
    fanout_checked_.insert(
        std::lower_bound(fanout_checked_.begin(), fanout_checked_.end(),
                         fanout_key),
        fanout_key);
    if (ack.partners.size() < params_.fanout) {
      const double value =
          static_cast<double>(params_.fanout - ack.partners.size());
      if (trace_ != nullptr) {
        trace_->record(obs::EventKind::kVerdictFanout, self_, from,
                       ack.period, value, 0,
                       static_cast<std::uint16_t>(ack.partners.size()));
      }
      blame_(from, value, gossip::BlameReason::kFanoutDecrease);
    }
  }

  // Mark every outstanding batch for this receiver whose chunks the ack
  // fully covers; covered batches with a triggered check share one confirm
  // round per (subject, subject-period).
  gossip::ChunkIdList covered_chunks;
  for (auto& batch : batches_) {
    if (batch.receiver != from || batch.covered) continue;
    const bool all = std::all_of(
        batch.chunks.begin(), batch.chunks.end(), [&](ChunkId c) {
          return std::find(ack.chunks.begin(), ack.chunks.end(), c) !=
                 ack.chunks.end();
        });
    if (!all) continue;
    batch.covered = true;
    covered_chunks.insert(covered_chunks.end(), batch.chunks.begin(),
                          batch.chunks.end());
  }
  if (covered_chunks.empty()) return;

  // §5: the check is triggered with probability p_dcc per serve-ack.
  if (!rng_.bernoulli(p_dcc_)) return;
  start_confirm_round(ack, from, covered_chunks);
}

void CrossChecker::start_confirm_round(const gossip::AckMsg& ack,
                                       NodeId subject,
                                       const gossip::ChunkIdList& chunks) {
  const auto key = std::make_pair(subject, ack.period);
  const auto it =
      std::lower_bound(rounds_.begin(), rounds_.end(), key, kEntryKeyLess);
  if (it != rounds_.end() && it->key() == key) {
    return;  // one round per receiver propose phase
  }
  ConfirmRound round;
  round.subject = subject;
  round.subject_period = ack.period;
  SmallVector<NodeId, 8> witnesses;
  for (const auto witness : ack.partners) {
    if (witness != self_ && witness != subject) witnesses.push_back(witness);
  }
  const std::size_t sent = witnesses.size();
  if (sent == 0) return;
  send_(witnesses, gossip::ConfirmReqMsg{subject, ack.period, chunks});
  round.witnesses = sent;
  rounds_.insert(it, round);
  ++rounds_started_;
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kConfirmRound, self_, subject, ack.period,
                   0.0, 0, static_cast<std::uint16_t>(sent));
  }
  sim_.schedule_after(params_.confirm_timeout,
                      [this, subject, period = ack.period] {
                        on_confirm_deadline(subject, period);
                      });
}

void CrossChecker::on_confirm_response(NodeId witness,
                                       const gossip::ConfirmRespMsg& msg) {
  ConfirmRound* round = find_round(msg.subject, msg.subject_period);
  if (round == nullptr) return;
  if (std::find(round->responded.begin(), round->responded.end(), witness) !=
      round->responded.end()) {
    return;  // transport-duplicated testimony: one vote per witness
  }
  if (round->yes + round->no >= round->witnesses) return;  // late duplicates
  round->responded.push_back(witness);
  if (msg.confirmed) {
    ++round->yes;
  } else {
    ++round->no;
  }
}

void CrossChecker::on_confirm_deadline(NodeId subject,
                                       PeriodIndex subject_period) {
  ConfirmRound* round = find_round(subject, subject_period);
  if (round == nullptr) return;
  // Blame 1 per contradictory testimony; a missing testimony is
  // indistinguishable from a lost witness chain and blames 1 as well
  // (Eq. 3's (1-pr³) term).
  const std::size_t failures = round->witnesses - round->yes;
  if (failures > 0) {
    if (trace_ != nullptr) {
      trace_->record(
          obs::EventKind::kVerdictTestimony, self_, subject, subject_period,
          static_cast<double>(failures), 0,
          static_cast<std::uint16_t>((round->yes << 8) | (round->no & 0xFF)));
    }
    blame_(subject, static_cast<double>(failures),
           gossip::BlameReason::kTestimony);
  }
  rounds_.erase(rounds_.begin() + (round - rounds_.data()));
}

void CrossChecker::on_ack_deadline(NodeId receiver, PeriodIndex serve_period,
                                   std::uint64_t generation) {
  Batch* batch = find_batch(receiver, serve_period);
  if (batch == nullptr) return;
  if (batch->generation != generation) return;  // superseded by later serves
  if (!batch->covered) {
    // No acknowledgment covering the batch: blame f (§5.2 — same value as
    // not proposing at all).
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kVerdictNoAck, self_, receiver,
                     serve_period, static_cast<double>(params_.fanout));
    }
    blame_(receiver, static_cast<double>(params_.fanout),
           gossip::BlameReason::kInvalidAck);
  }
  batches_.erase(batches_.begin() + (batch - batches_.data()));
}

}  // namespace lifting
