#ifndef LIFTING_LIFTING_HISTORY_HPP
#define LIFTING_LIFTING_HISTORY_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ring_log.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "gossip/message.hpp"

/// Bounded accountability logs (paper §5: "every node logs a bounded-size
/// history of sent and received messages ... corresponding to the last
/// n_h = h/Tg gossip periods").
///
/// Three logs per node:
///  * SentProposalHistory — own proposals (period, partners, chunks); the
///    payload of an audit reply and the source of F_h.
///  * ReceivedProposalLog — proposals received, to answer confirm requests
///    and history polls as a witness.
///  * ConfirmAskerLog — who asked this node to confirm whose proposals;
///    polled by auditors to reconstruct F'_h (§5.3).
///
/// Storage is flat (DESIGN.md §9). Each log keeps a RingLog of small
/// fixed-size keys (time, proposer or period, run lengths), entries
/// time-ordered with the oldest at the front, and the proposals' variable
/// parts live back to back in RingLogs of ids: entry i's chunk ids are the
/// run that follows entry i-1's. An entry costs a 24-byte key plus 4 bytes
/// per id, the witness scans walk keys only, and the window only ever
/// evicts from the front and appends at the back, so once the rings have
/// grown to the window's high water a node records its whole history
/// without heap allocation. These rings hold plain keys and ids, so
/// RingLog's slot-payload recycling contract does not concern them.

namespace lifting {

namespace detail {

/// Copies the id run [pos, pos + n) of `ring` onto the end of `out`.
template <typename T, typename Out>
void append_run(const RingLog<T>& ring, std::size_t pos, std::size_t n,
                Out& out) {
  const auto [head, tail] = ring.spans(pos, n);
  out.reserve(out.size() + n);
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), tail.begin(), tail.end());
}

}  // namespace detail

class SentProposalHistory {
 public:
  void record(TimePoint at, PeriodIndex period,
              const std::vector<NodeId>& partners,
              const gossip::ChunkIdList& chunks) {
    keys_.push_slot() = Key{at, period,
                            static_cast<std::uint32_t>(partners.size()),
                            static_cast<std::uint32_t>(chunks.size())};
    partners_.append(partners.begin(), partners.size());
    chunks_.append(chunks.begin(), chunks.size());
  }

  void prune(TimePoint cutoff) {
    while (!keys_.empty() && keys_.front().at < cutoff) {
      partners_.pop_front(keys_.front().partners);
      chunks_.pop_front(keys_.front().chunks);
      keys_.pop_front();
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// The audit-visible records, oldest first. Materializes fresh vectors —
  /// this is the audit-reply path, not a steady-state one.
  [[nodiscard]] std::vector<gossip::HistoryProposalRecord> snapshot() const {
    std::vector<gossip::HistoryProposalRecord> out(keys_.size());
    std::size_t partner_pos = 0;
    std::size_t chunk_pos = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const Key& k = keys_[i];
      out[i].period = k.period;
      detail::append_run(partners_, partner_pos, k.partners, out[i].partners);
      detail::append_run(chunks_, chunk_pos, k.chunks, out[i].chunks);
      partner_pos += k.partners;
      chunk_pos += k.chunks;
    }
    return out;
  }

 private:
  struct Key {
    TimePoint at{};
    PeriodIndex period = 0;
    std::uint32_t partners = 0;  // run length in partners_
    std::uint32_t chunks = 0;    // run length in chunks_
  };
  static_assert(sizeof(Key) == 24);
  RingLog<Key> keys_;
  RingLog<NodeId> partners_;
  RingLog<ChunkId> chunks_;
};

class ReceivedProposalLog {
 public:
  void record(TimePoint at, NodeId from, PeriodIndex period,
              const gossip::ChunkIdList& chunks) {
    keys_.push_slot() =
        Key{at, from, period, static_cast<std::uint32_t>(chunks.size())};
    chunks_.append(chunks.begin(), chunks.size());
  }

  void prune(TimePoint cutoff) {
    while (!keys_.empty() && keys_.front().at < cutoff) {
      chunks_.pop_front(keys_.front().chunks);
      keys_.pop_front();
    }
  }

  /// Already holds a proposal from `from` for `period`? A proposer sends
  /// one propose per period, so a second sighting is a transport duplicate
  /// and must not be re-recorded (the duplicate-delivery idempotence
  /// contract, tests/test_faults.cpp).
  [[nodiscard]] bool has(NodeId from, PeriodIndex period) const {
    for (std::size_t i = keys_.size(); i-- > 0;) {
      const Key& k = keys_[i];
      if (k.from == from && k.period == period) return true;
    }
    return false;
  }

  /// Does the log contain a proposal from `subject` (not older than
  /// `since`) containing every chunk in `chunks`? This is the witness-side
  /// test behind confirm responses and history polls.
  [[nodiscard]] bool confirms(NodeId subject,
                              const gossip::ChunkIdList& chunks,
                              TimePoint since) const {
    std::size_t run_end = chunks_.size();
    for (std::size_t i = keys_.size(); i-- > 0;) {
      const Key& k = keys_[i];
      if (k.at < since) break;  // entries are time-ordered
      run_end -= k.chunks;
      if (k.from != subject) continue;
      const auto [head, tail] = chunks_.spans(run_end, k.chunks);
      const bool all =
          std::all_of(chunks.begin(), chunks.end(), [&](ChunkId c) {
            return std::find(head.begin(), head.end(), c) != head.end() ||
                   std::find(tail.begin(), tail.end(), c) != tail.end();
          });
      if (all) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

 private:
  struct Key {
    TimePoint at{};
    NodeId from{};
    PeriodIndex period = 0;
    std::uint32_t chunks = 0;  // run length in chunks_
  };
  static_assert(sizeof(Key) == 24);
  RingLog<Key> keys_;
  RingLog<ChunkId> chunks_;
};

class ConfirmAskerLog {
 public:
  void record(TimePoint at, NodeId subject, NodeId asker) {
    Entry& e = entries_.push_slot();
    e.at = at;
    e.subject = subject;
    e.asker = asker;
  }

  void prune(TimePoint cutoff) {
    while (!entries_.empty() && entries_.front().at < cutoff) {
      entries_.pop_front();
    }
  }

  /// All nodes that asked about `subject` within the log, with
  /// multiplicity — the witness's contribution to F'_h.
  [[nodiscard]] std::vector<NodeId> askers_about(NodeId subject) const {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].subject == subject) out.push_back(entries_[i].asker);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    TimePoint at{};
    NodeId subject{};
    NodeId asker{};
  };
  RingLog<Entry> entries_;
};

}  // namespace lifting

#endif  // LIFTING_LIFTING_HISTORY_HPP
