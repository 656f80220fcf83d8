#ifndef LIFTING_LIFTING_VERIFIER_HPP
#define LIFTING_LIFTING_VERIFIER_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "gossip/message.hpp"
#include "lifting/params.hpp"
#include "sim/simulator.hpp"

namespace lifting::obs {
class Recorder;
}  // namespace lifting::obs

/// The two direct verification procedures of LiFTinG (paper §5.2).
///
/// DirectVerifier (requester side): after requesting R chunks against a
/// proposal, blames the proposer f·(|R|-|S|)/|R| for the chunks that never
/// arrived — f when nothing arrived, matching a dropped proposal.
///
/// CrossChecker (server side): after serving chunks, expects an ack listing
/// the receiver's next-phase partners; blames f when the ack is missing or
/// does not cover the served chunks; blames the fanout shortfall (f - f̂)
/// from the ack's partner list; and, with probability p_dcc, polls the
/// listed witnesses and blames 1 per contradictory or missing testimony.

namespace lifting {

/// Emits a blame against `target` (routed to its managers by the agent).
using BlameFn =
    std::function<void(NodeId target, double value, gossip::BlameReason)>;

/// Sends one protocol message (datagram) from this node to each of `to`.
using SendManyFn = std::function<void(std::span<const NodeId> to,
                                      const gossip::Message& message)>;

/// A verification tracker's chunk ids, kept sorted and unique. The inline
/// capacity is sized to the typical |R|, not to a whole proposal: these
/// sets are the elements of the trackers' sorted flat vectors, so an unused
/// inline buffer is paid once per element. A set that outgrows it spills
/// to a block-pool block, so tracking a verification allocates nothing in
/// steady state either way (the per-request std::set these replace paid
/// one node allocation per chunk, the top allocator of whole runs).
using ChunkIdSet = SmallVector<ChunkId, 4>;

class DirectVerifier {
 public:
  DirectVerifier(sim::Simulator& sim, const LiftingParams& params,
                 BlameFn blame)
      : sim_(sim), params_(params), blame_(std::move(blame)) {}

  /// Arms verdict tracing (DESIGN.md §13). The verifier does not know its
  /// own id, so the arming agent passes it for the records' actor field.
  void set_trace(obs::Recorder* trace, NodeId self) noexcept {
    trace_ = trace;
    trace_self_ = self;
  }

  /// We requested `chunks` from `proposer` against its proposal `period`.
  void on_request_sent(NodeId proposer, PeriodIndex period,
                       const gossip::ChunkIdList& chunks);

  /// A served chunk arrived from `sender`.
  void on_serve_received(NodeId sender, PeriodIndex period, ChunkId chunk);

  [[nodiscard]] std::uint64_t verifications_completed() const noexcept {
    return completed_;
  }
  /// Bytes of the pool blocks the pending table holds (the memory layer
  /// table).
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return held_bytes(pending_);
  }

 private:
  struct Key {
    NodeId proposer;
    PeriodIndex period;
    friend bool operator==(const Key&, const Key&) = default;
    bool operator<(const Key& o) const {
      return proposer != o.proposer ? proposer < o.proposer
                                    : period < o.period;
    }
  };
  struct Pending {
    Key key;
    ChunkIdSet outstanding;
    std::size_t requested = 0;
  };

  /// A node has at most ~f concurrent outstanding verifications (one per
  /// proposer contacted within dv_timeout ≈ one period), so the pending set
  /// is a key-sorted flat vector: binary search, ordered insert/erase, and
  /// — unlike the std::map it replaces — zero per-entry node allocations
  /// once the vector's capacity has warmed up (Experiment::reset keeps it).
  [[nodiscard]] Pending* find_pending(const Key& key);

  void on_deadline(Key key);

  sim::Simulator& sim_;
  const LiftingParams& params_;
  BlameFn blame_;
  obs::Recorder* trace_ = nullptr;
  NodeId trace_self_;
  RecycledVector<Pending> pending_;  // sorted by key
  std::uint64_t completed_ = 0;
};

class CrossChecker {
 public:
  /// `p_dcc` is the owner's working cross-check probability, read on every
  /// ack: adaptive decay moves it away from params.p_dcc.
  CrossChecker(sim::Simulator& sim, const LiftingParams& params,
               const double& p_dcc, NodeId self, Pcg32& rng, BlameFn blame,
               SendManyFn send)
      : sim_(sim),
        params_(params),
        p_dcc_(p_dcc),
        self_(self),
        rng_(rng),
        blame_(std::move(blame)),
        send_(std::move(send)) {}

  /// Arms verdict tracing (records carry self_ as the actor).
  void set_trace(obs::Recorder* trace) noexcept { trace_ = trace; }

  /// We served `chunks` to `receiver` (against our proposal of `period`).
  void on_chunks_served(NodeId receiver, PeriodIndex period,
                        const gossip::ChunkIdList& chunks);

  /// The receiver's ack[i](partners) arrived.
  void on_ack_received(NodeId from, const gossip::AckMsg& ack);

  /// A witness testimony arrived.
  void on_confirm_response(NodeId witness, const gossip::ConfirmRespMsg& msg);

  [[nodiscard]] std::uint64_t confirm_rounds_started() const noexcept {
    return rounds_started_;
  }
  /// (receiver, ack period) pairs whose fanout was judged and not yet
  /// pruned.
  [[nodiscard]] std::size_t fanout_checked_size() const noexcept {
    return fanout_checked_.size();
  }
  /// Bytes of the pool blocks the three tracker tables hold (the memory
  /// layer table).
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return held_bytes(batches_) + held_bytes(rounds_) +
           held_bytes(fanout_checked_);
  }

 private:
  /// Key of both tracker tables: (peer, period). The tables were std::maps
  /// over this pair; a node has only ~f outstanding serve batches and a
  /// handful of running confirm rounds at any instant, so — like
  /// DirectVerifier::pending_ above — they are key-sorted flat vectors
  /// now: binary search, ordered insert/erase, identical iteration order
  /// to the maps they replace (sorted by key), and zero per-entry node
  /// allocations once the vectors' capacity has warmed up
  /// (Experiment::reset keeps it; bench_sweep_scaling prints the
  /// fresh-vs-reset delta this buys).
  struct Batch {
    NodeId receiver;
    PeriodIndex serve_period;  // our proposal period the serve answered
    ChunkIdSet chunks;  // sorted + unique
    bool covered = false;  // fully covered by an ack
    std::uint64_t generation = 0;
    [[nodiscard]] std::pair<NodeId, PeriodIndex> key() const noexcept {
      return {receiver, serve_period};
    }
  };
  struct ConfirmRound {
    NodeId subject;
    PeriodIndex subject_period;  // the ack's (receiver's) period
    std::size_t witnesses = 0;
    std::size_t yes = 0;
    std::size_t no = 0;
    /// Witnesses whose testimony was counted. One vote per witness: a
    /// transport-duplicated response must not fill the round's quota and
    /// crowd out a real witness (duplicate-delivery idempotence,
    /// tests/test_faults.cpp). A round has at most fanout witnesses (7 on
    /// planetlab), so the list stays inline.
    SmallVector<NodeId, 8> responded;
    [[nodiscard]] std::pair<NodeId, PeriodIndex> key() const noexcept {
      return {subject, subject_period};
    }
  };

  [[nodiscard]] Batch* find_batch(NodeId receiver, PeriodIndex serve_period);
  [[nodiscard]] ConfirmRound* find_round(NodeId subject,
                                         PeriodIndex subject_period);

  void on_ack_deadline(NodeId receiver, PeriodIndex serve_period,
                       std::uint64_t generation);
  void on_confirm_deadline(NodeId subject, PeriodIndex subject_period);
  void start_confirm_round(const gossip::AckMsg& ack, NodeId subject,
                           const gossip::ChunkIdList& chunks);

  sim::Simulator& sim_;
  const LiftingParams& params_;
  const double& p_dcc_;
  NodeId self_;
  Pcg32& rng_;
  BlameFn blame_;
  SendManyFn send_;
  obs::Recorder* trace_ = nullptr;

  /// Outstanding serve batches, sorted by (receiver, serve_period).
  RecycledVector<Batch> batches_;
  /// Running confirm rounds, sorted by (subject, subject_period).
  RecycledVector<ConfirmRound> rounds_;
  /// (receiver, ack period) pairs whose fanout assertion was already
  /// judged — a transport-level duplicate of an ack must not double-blame
  /// kFanoutDecrease (each ack asserts ONE propose phase's partner set).
  /// Sorted flat vector; pruned against the advancing period horizon so it
  /// stays bounded by the in-flight window: once it reaches
  /// fanout_prune_at_ entries, which is twice its size after the last
  /// prune and at least kFanoutPruneFloor.
  RecycledVector<std::pair<NodeId, PeriodIndex>> fanout_checked_;
  static constexpr std::size_t kFanoutPruneFloor = 64;
  std::size_t fanout_prune_at_ = kFanoutPruneFloor;
  std::uint64_t generation_ = 0;
  std::uint64_t rounds_started_ = 0;
};

}  // namespace lifting

#endif  // LIFTING_LIFTING_VERIFIER_HPP
