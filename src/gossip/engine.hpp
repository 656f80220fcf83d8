#ifndef LIFTING_GOSSIP_ENGINE_HPP
#define LIFTING_GOSSIP_ENGINE_HPP

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ring_log.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "gossip/behavior.hpp"
#include "gossip/chunk.hpp"
#include "gossip/mailer.hpp"
#include "gossip/message.hpp"
#include "membership/directory.hpp"
#include "sim/simulator.hpp"

/// The three-phase gossip dissemination engine (paper §3) with every §4
/// freeriding attack implementable through its BehaviorSpec.
///
/// Each node runs one Engine. Every gossip period Tg the engine proposes
/// the chunks received since the last propose phase to f uniformly random
/// partners (infect-and-die); on a proposal it requests the chunks it needs;
/// on a valid request it serves the requested chunks. With LiFTinG enabled,
/// the engine additionally emits the ack messages of the direct
/// cross-checking protocol (§5.2) at propose time, and reports protocol
/// events to an EngineObserver (the LiFTinG agent).

namespace lifting::membership {
class RpsNetwork;
}  // namespace lifting::membership

namespace lifting::obs {
class Recorder;
}  // namespace lifting::obs

namespace lifting::gossip {

/// Protocol events consumed by the LiFTinG agent. All references are only
/// valid for the duration of the call.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// A proposal arrived from `from` (witness bookkeeping).
  virtual void on_propose_received(NodeId from, PeriodIndex period,
                                   const ChunkIdList& chunks) = 0;
  /// We requested `chunks` from `proposer` (direct-verification arm).
  virtual void on_request_sent(NodeId proposer, PeriodIndex period,
                               const ChunkIdList& chunks) = 0;
  /// A chunk was served to us. `ack_to` is whom the protocol says to
  /// acknowledge (equals `sender` unless the sender mounts a MITM).
  virtual void on_serve_received(NodeId sender, NodeId ack_to,
                                 PeriodIndex period, ChunkId chunk) = 0;
  /// We served `chunks` to `receiver` against its request on our proposal
  /// of `period` (cross-checking expectation arm).
  virtual void on_chunks_served(NodeId receiver, PeriodIndex period,
                                const ChunkIdList& chunks) = 0;
  /// Our propose phase completed. `claimed_partners` is what our acks
  /// assert (may differ from `real_partners` under MITM).
  virtual void on_proposal_sent(PeriodIndex period,
                                const std::vector<NodeId>& claimed_partners,
                                const std::vector<NodeId>& real_partners,
                                const ChunkIdList& chunks) = 0;
  /// An ack[i](partners) arrived from `from` (cross-checking verifier arm).
  virtual void on_ack_received(NodeId from, const AckMsg& ack) = 0;
};

struct GossipParams {
  /// Fanout f (typically slightly larger than ln n — §3).
  std::size_t fanout = 7;
  /// Gossip period Tg.
  Duration period = milliseconds(500);
  /// A requested chunk not served within this delay becomes requestable
  /// from another proposer (also the direct-verification deadline).
  Duration request_timeout = milliseconds(500);
  /// Sent proposals are kept this many periods for request validation.
  std::uint32_t proposal_retention_periods = 4;
  /// Emit the cross-checking acks (§5.2). Off when LiFTinG is disabled —
  /// the plain three-phase protocol has no acknowledgments.
  bool emit_acks = true;
  /// Request at most this many chunks from a single proposal (0 = no cap).
  /// Streaming deployments balance requests across proposers; a cap of
  /// |R| puts the system in the §6 steady state (each node served by ~f
  /// servers with |R| chunks each per period).
  std::uint32_t max_request_per_proposal = 0;
};

/// Per-engine protocol statistics.
struct EngineStats {
  std::uint64_t chunks_received = 0;
  std::uint64_t duplicate_serves = 0;
  std::uint64_t proposals_sent = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t chunks_served = 0;
  std::uint64_t invalid_requests = 0;  // requests not matching a proposal
  std::uint64_t duplicate_requests = 0;  // already-served (transport dup)

  /// The one field list: every fold and report goes through it (the
  /// simulator reports `engine.<name>`, the wire daemon bare `<name>`).
  static constexpr std::pair<std::string_view, std::uint64_t EngineStats::*>
      kFields[] = {{"chunks_received", &EngineStats::chunks_received},
                   {"duplicate_serves", &EngineStats::duplicate_serves},
                   {"proposals_sent", &EngineStats::proposals_sent},
                   {"requests_sent", &EngineStats::requests_sent},
                   {"chunks_served", &EngineStats::chunks_served},
                   {"invalid_requests", &EngineStats::invalid_requests},
                   {"duplicate_requests", &EngineStats::duplicate_requests}};
  EngineStats& operator+=(const EngineStats& other) {
    for (const auto& [name, field] : kFields) this->*field += other.*field;
    return *this;
  }
};

class Engine {
 public:
  Engine(sim::Simulator& sim, Mailer& mailer, membership::Directory& directory,
         NodeId self, GossipParams params, BehaviorSpec behavior, Pcg32 rng,
         EngineObserver* observer);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Begins the periodic propose loop after `initial_offset` (nodes are
  /// desynchronized in practice; pass a random fraction of Tg).
  void start(Duration initial_offset);

  /// Stops proposing (the node still answers incoming traffic). Used to
  /// wind down expelled nodes in long experiments and to retire departed
  /// nodes (the engine object outlives the node so pending timers land on
  /// live memory; the stopped flag makes them no-ops).
  void stop() noexcept { running_ = false; }
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Replaces the node's behavior mid-run (timeline set_behavior events:
  /// an honest node turning freerider, a freerider going straight).
  void set_behavior(BehaviorSpec behavior);

  /// Partner selection from an RPS partial view (DESIGN.md §12): when set,
  /// honest partner draws come from `rps->view_of(self)` (filtered through
  /// this node's membership view) instead of the full directory. Null (the
  /// default) keeps the legacy directory sampling bit-identical.
  void set_partner_view(const membership::RpsNetwork* rps) noexcept {
    rps_view_ = rps;
  }

  /// Arms the flight recorder for this engine's phase transitions
  /// (DESIGN.md §13). Null (the default) disarms: no record is built.
  void set_trace(obs::Recorder* trace) noexcept { trace_ = trace; }

  /// Routes one of the four gossip message kinds to the engine.
  void handle(NodeId from, const Message& message);

  /// Injects a brand-new chunk (stream source only): it will be proposed in
  /// the next propose phase like any received chunk, with no ack owed.
  void inject_chunk(const ChunkMeta& chunk);

  [[nodiscard]] bool has_chunk(ChunkId id) const {
    return delivery_log_.contains(id);
  }
  /// First-delivery times of every chunk this node received (or injected).
  [[nodiscard]] const DeliveryLog& delivery_times() const noexcept {
    return delivery_log_;
  }
  /// Streamed-health fold: drops the delivery timestamps of chunks below
  /// `horizon` (their judgment window has closed). Presence bits stay — the
  /// log's bitmap is also the engine's held-set — so protocol behavior is
  /// untouched.
  void compact_delivery_log(ChunkId horizon) {
    delivery_log_.compact_before(horizon);
  }
  /// Pre-sizes the delivery log's presence bitmap for the whole stream, so
  /// steady-state deliveries never regrow it (part of the per-period
  /// zero-allocation invariant).
  void reserve_stream_chunks(std::size_t chunks) {
    delivery_log_.reserve_stream(chunks);
  }
  /// Deadline of the outstanding request for `id`, or TimePoint::min()
  /// when none is live (the chunk is requestable once this is <= now).
  [[nodiscard]] TimePoint pending_deadline(ChunkId id) const {
    return pending_.deadline(id);
  }
  /// Pages held by the per-period tables: fresh chunks, pending requests
  /// and the sent-proposal window.
  [[nodiscard]] std::size_t period_state_pages() const noexcept {
    return fresh_.pages() + pending_.pages() + sent_proposals_.pages();
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] PeriodIndex current_period() const noexcept { return period_; }
  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] const BehaviorSpec& behavior() const noexcept {
    return behavior_;
  }

 private:
  struct FreshChunk {
    ChunkId id;
    NodeId ack_to;      // whom to acknowledge (serve's ack_to)
    bool has_origin;    // false for source-injected chunks
    std::uint32_t payload_bytes;
  };

  static constexpr std::uint32_t kNotHeld = 0xFFFFFFFFU;

  void propose_phase();
  void schedule_next_phase();
  void handle_propose(NodeId from, const ProposeMsg& msg);
  void handle_request(NodeId from, const RequestMsg& msg);
  void handle_serve(NodeId from, const ServeMsg& msg);
  void send_acks(PeriodIndex period,
                 const std::vector<NodeId>& claimed_partners);
  void pick_partners_into(std::size_t count, std::vector<NodeId>& out);
  [[nodiscard]] NodeId choose_ack_target();
  void add_chunk(ChunkId id, std::uint32_t payload_bytes);
  [[nodiscard]] std::uint32_t held_payload_bytes(ChunkId id) const {
    if (!has_chunk(id)) return kNotHeld;
    for (const auto& [chunk, bytes] : payload_exceptions_) {
      if (chunk == id) return bytes;
    }
    return default_payload_;
  }
  void prune_sent_proposals();

  sim::Simulator& sim_;
  Mailer& mailer_;
  membership::Directory& directory_;
  NodeId self_;
  GossipParams params_;
  BehaviorSpec behavior_;
  Pcg32 rng_;
  EngineObserver* observer_;
  /// Flight recorder (null = disarmed, records nothing).
  obs::Recorder* trace_ = nullptr;
  /// RPS partner-selection source (null = legacy directory sampling).
  const membership::RpsNetwork* rps_view_ = nullptr;

  bool running_ = false;
  PeriodIndex period_ = 0;

  /// Per-chunk state (DESIGN.md §9). The DeliveryLog's presence bitmap is
  /// the held-set (1 bit/chunk); payload sizes collapse to one default —
  /// a CBR stream emits constant-size chunks — plus a flat exception list
  /// for the rare odd-sized ones. The old dense held_bytes_ table paid
  /// 4 B/chunk/node for a value that is the same everywhere.
  DeliveryLog delivery_log_;
  std::uint32_t default_payload_ = kNotHeld;  // set by the first add_chunk
  RecycledVector<std::pair<ChunkId, std::uint32_t>> payload_exceptions_;
  /// Outstanding requests awaiting a serve, on pages (served and expired
  /// requests leave the table).
  PendingRequests pending_;
  /// Chunks received since the last propose phase, in receive order. The
  /// phase reads them in place and then clears the ring, so its pages go
  /// back to the pool between periods (infect-and-die: §3).
  RingLog<FreshChunk> fresh_;
  /// Proposals we sent, newest last, for request validation. One record per
  /// propose phase — the chunk list is shared by all partners of that
  /// period instead of being copied per partner — and only the retention
  /// window is kept, so request validation scans a handful of records
  /// indexed by period. The window's RingLog pages construct and destroy
  /// these elements; list spill blocks cycle through the block pool, so
  /// the steady-state record path never allocates. An entry is 128 B, four
  /// to a page.
  struct SentProposal {
    PeriodIndex period = 0;
    /// Bit i set: partners[i] was already served this period. A request is
    /// answered once: a transport-duplicated request must not re-serve (or
    /// re-draw a partial-serve behavior's rng) — the duplicate-delivery
    /// idempotence contract (tests/test_faults.cpp).
    std::uint32_t served = 0;
    TimePoint at{};
    ChunkIdList chunks;
    SmallVector<NodeId, 8> partners;
  };
  static_assert(RingLog<SentProposal>::kPerPage >= 4);
  RingLog<SentProposal> sent_proposals_;
  /// Propose-phase scratch buffers (capacity retained across periods so the
  /// steady-state phase is allocation-free; see bench_sweep_scaling's
  /// zero-allocation delta row).
  std::vector<NodeId> partners_scratch_;
  std::vector<NodeId> claimed_scratch_;
  std::vector<NodeId> rps_pool_scratch_;
  RecycledVector<NodeId> servers_scratch_;
  std::vector<std::uint32_t> sample_index_scratch_;

  EngineStats stats_;
};

}  // namespace lifting::gossip

#endif  // LIFTING_GOSSIP_ENGINE_HPP
