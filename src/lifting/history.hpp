#ifndef LIFTING_LIFTING_HISTORY_HPP
#define LIFTING_LIFTING_HISTORY_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ring_log.hpp"
#include "common/stamp.hpp"
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
/// Only the §5.3 audits read the first and the last, so the two travel
/// together as an AuditTrail, which a node keeps only in a deployment that
/// audits. Confirms and duplicate checks read the received log everywhere.
///
/// Storage is flat and paged (DESIGN.md §9). Each log keeps a RingLog of
/// small fixed-size keys (time, proposer or period, run lengths), entries
/// time-ordered with the oldest at the front, and the proposals' variable
/// parts live back to back in rings: entry i's run follows entry i-1's.
/// Chunk ids are stored as varint runs (detail::encode_run below): the ids
/// of one proposal sit close together in the stream, so a run costs about
/// one byte per id instead of four. Times are 32-bit stamps from a
/// per-log base (src/common/stamp.hpp): a log rebases when a new stamp
/// would not fit, which the retention window (well under 71.6 min) keeps
/// exact. An entry costs a 16-byte key plus its encoded run (at most 5
/// bytes per id); a confirm-asker entry is 12 bytes. The witness scans
/// walk the keys page by page, newest first, and decode only the runs of
/// the proposer asked about; a run may cross a page boundary, so run
/// readers take it in page-contiguous pieces. The window only ever evicts
/// from the front and appends at the back, so a log holds the pages its
/// window touches and hands each page back to the thread's pool as
/// pruning empties it.
/// These rings hold plain keys, ids and bytes, so RingLog's slot-payload
/// recycling contract does not concern them.

namespace lifting {

namespace detail {

/// Copies the id run [pos, pos + n) of `ring` onto the end of `out`.
template <typename T, typename Out>
void append_run(const RingLog<T>& ring, std::size_t pos, std::size_t n,
                Out& out) {
  out.reserve(out.size() + n);
  ring.for_each_span(pos, n, [&](std::span<const T> piece) {
    out.insert(out.end(), piece.begin(), piece.end());
  });
}

/// Appends `ids` to `out`, in their own order, each as the zigzag LEB128
/// varint of its difference from the previous id (the first from 0), and
/// returns the number of bytes written: 1 byte for a step within ±63,
/// 5 bytes at worst (a step across the full 32-bit range).
inline std::uint32_t encode_run(std::span<const ChunkId> ids,
                                RingLog<std::uint8_t>& out) {
  std::uint8_t buf[64];  // staged, so the ring takes bytes in a few appends
  std::size_t used = 0;
  std::uint32_t bytes = 0;
  std::int64_t prev = 0;
  for (const ChunkId c : ids) {
    if (used + 5 > sizeof buf) {
      out.append(buf, used);
      bytes += static_cast<std::uint32_t>(used);
      used = 0;
    }
    const std::int64_t id = c.value();
    const std::int64_t delta = id - prev;
    prev = id;
    std::uint64_t z = (static_cast<std::uint64_t>(delta) << 1) ^
                      static_cast<std::uint64_t>(delta >> 63);
    for (; z >= 0x80; z >>= 7) {
      buf[used++] = static_cast<std::uint8_t>(z | 0x80);
    }
    buf[used++] = static_cast<std::uint8_t>(z);
  }
  out.append(buf, used);
  return bytes + static_cast<std::uint32_t>(used);
}

/// Decodes the run encode_run wrote at bytes [pos, pos + bytes) of `ring`
/// onto the end of `out`. A varint may straddle a page boundary.
inline void decode_run(const RingLog<std::uint8_t>& ring, std::size_t pos,
                       std::size_t bytes, gossip::ChunkIdList& out) {
  std::int64_t prev = 0;
  std::uint64_t z = 0;
  unsigned shift = 0;
  ring.for_each_span(pos, bytes, [&](std::span<const std::uint8_t> piece) {
    for (const std::uint8_t b : piece) {
      z |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) != 0) {
        shift += 7;
        continue;
      }
      prev += static_cast<std::int64_t>((z >> 1) ^ (0 - (z & 1)));
      out.push_back(ChunkId{static_cast<std::uint32_t>(prev)});
      z = 0;
      shift = 0;
    }
  });
}

}  // namespace detail

class SentProposalHistory {
 public:
  void record(TimePoint at, PeriodIndex period,
              const std::vector<NodeId>& partners,
              const gossip::ChunkIdList& chunks) {
    partners_.append(partners.begin(), partners.size());
    const std::uint32_t bytes = detail::encode_run(chunks, chunks_);
    const StampBase::Stamp stamp = stamps_.stamp(at, keys_, &Key::at);
    keys_.push_slot() =
        Key{stamp, period, static_cast<std::uint32_t>(partners.size()), bytes};
  }

  void prune(TimePoint cutoff) {
    while (!keys_.empty() && stamps_.decode(keys_.front().at) < cutoff) {
      partners_.pop_front(keys_.front().partners);
      chunks_.pop_front(keys_.front().chunks);
      keys_.pop_front();
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] std::size_t pages() const noexcept {
    return keys_.pages() + partners_.pages() + chunks_.pages();
  }

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
      detail::decode_run(chunks_, chunk_pos, k.chunks, out[i].chunks);
      partner_pos += k.partners;
      chunk_pos += k.chunks;
    }
    return out;
  }

 private:
  struct Key {
    StampBase::Stamp at = 0;
    PeriodIndex period = 0;
    std::uint32_t partners = 0;  // run length in partners_
    std::uint32_t chunks = 0;    // encoded run length in chunks_, bytes
  };
  static_assert(sizeof(Key) == 16);
  RingLog<Key> keys_;
  RingLog<NodeId> partners_;
  RingLog<std::uint8_t> chunks_;
  StampBase stamps_;
};

class ReceivedProposalLog {
 public:
  void record(TimePoint at, NodeId from, PeriodIndex period,
              const gossip::ChunkIdList& chunks) {
    const std::uint32_t bytes = detail::encode_run(chunks, chunks_);
    const StampBase::Stamp stamp = stamps_.stamp(at, keys_, &Key::at);
    keys_.push_slot() = Key{stamp, from, period, bytes};
  }

  void prune(TimePoint cutoff) {
    while (!keys_.empty() && stamps_.decode(keys_.front().at) < cutoff) {
      chunks_.pop_front(keys_.front().chunks);
      keys_.pop_front();
    }
  }

  /// Already holds a proposal from `from` for `period`? A proposer sends
  /// one propose per period, so a second sighting is a transport duplicate
  /// and must not be re-recorded (the duplicate-delivery idempotence
  /// contract, tests/test_faults.cpp).
  [[nodiscard]] bool has(NodeId from, PeriodIndex period) const {
    return keys_.scan_back([&](std::span<const Key> page) {
      return std::any_of(page.rbegin(), page.rend(), [&](const Key& k) {
        return k.from == from && k.period == period;
      });
    });
  }

  /// Does the log contain a proposal from `subject` (not older than
  /// `since`) containing every chunk in `chunks`? This is the witness-side
  /// test behind confirm responses and history polls.
  [[nodiscard]] bool confirms(NodeId subject,
                              const gossip::ChunkIdList& chunks,
                              TimePoint since) const {
    gossip::ChunkIdList run;
    std::size_t run_end = chunks_.size();
    bool found = false;
    keys_.scan_back([&](std::span<const Key> page) {
      for (auto k = page.rbegin(); k != page.rend(); ++k) {
        if (stamps_.decode(k->at) < since) {
          return true;  // entries are time-ordered
        }
        run_end -= k->chunks;
        if (k->from != subject) continue;
        run.clear();
        detail::decode_run(chunks_, run_end, k->chunks, run);
        found = std::all_of(chunks.begin(), chunks.end(), [&](ChunkId c) {
          return std::find(run.begin(), run.end(), c) != run.end();
        });
        if (found) return true;
      }
      return false;
    });
    return found;
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] std::size_t pages() const noexcept {
    return keys_.pages() + chunks_.pages();
  }

 private:
  struct Key {
    StampBase::Stamp at = 0;
    NodeId from{};
    PeriodIndex period = 0;
    std::uint32_t chunks = 0;  // encoded run length in chunks_, bytes
  };
  static_assert(sizeof(Key) == 16);
  RingLog<Key> keys_;
  RingLog<std::uint8_t> chunks_;
  StampBase stamps_;
};

class ConfirmAskerLog {
 public:
  void record(TimePoint at, NodeId subject, NodeId asker) {
    const StampBase::Stamp stamp = stamps_.stamp(at, entries_, &Entry::at);
    Entry& e = entries_.push_slot();
    e.at = stamp;
    e.subject = subject;
    e.asker = asker;
  }

  void prune(TimePoint cutoff) {
    while (!entries_.empty() && stamps_.decode(entries_.front().at) < cutoff) {
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
  [[nodiscard]] std::size_t pages() const noexcept { return entries_.pages(); }

 private:
  struct Entry {
    StampBase::Stamp at = 0;
    NodeId subject{};
    NodeId asker{};
  };
  static_assert(sizeof(Entry) == 12);
  RingLog<Entry> entries_;
  StampBase stamps_;
};

/// The two logs only the §5.3 audits read: the node's own sent proposals
/// (its audit reply) and its confirm askers (its answer to a history
/// poll). Both keep the same window, so they prune together.
struct AuditTrail {
  SentProposalHistory sent;
  ConfirmAskerLog askers;

  void prune(TimePoint cutoff) {
    sent.prune(cutoff);
    askers.prune(cutoff);
  }
};

}  // namespace lifting

#endif  // LIFTING_LIFTING_HISTORY_HPP
