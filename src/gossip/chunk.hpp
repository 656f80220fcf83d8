#ifndef LIFTING_GOSSIP_CHUNK_HPP
#define LIFTING_GOSSIP_CHUNK_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/ring_log.hpp"
#include "common/small_vector.hpp"
#include "common/stamp.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

/// Stream chunks (paper §3): the content is split into chunks identified by
/// chunk ids; payloads are modeled by size only (the tracking protocol never
/// inspects content).

namespace lifting::gossip {

struct ChunkMeta {
  ChunkId id;
  std::uint32_t payload_bytes = 0;
  TimePoint emitted_at;  // when the source injected it
};

/// A small set of chunk ids — proposals, requests, acks and serve batches
/// are all chunk-id sets of size ~|P| or ~|R| (single digits to tens).
/// The inline buffer is paid by every Message in flight (the variant is as
/// large as its largest list-carrying alternative) and by every engine
/// window entry, so it is sized to the small lists, not the largest ones.
/// On the planetlab preset 8 ids inline hold about two thirds of the
/// requests and acks and 83% of the confirm requests; a typical proposal
/// (|P| ≈ 28 ids) spills to a 128 B block-pool block, which keeps the
/// gossip hot path allocation-free in steady state. 8 was measured
/// against 4, 16 and 32 (DESIGN.md §9).
using ChunkIdList = SmallVector<ChunkId, 8>;

/// First-delivery times of the chunks a node received (or injected).
///
/// Chunk ids are dense in emission order, so the log is a presence bitmap
/// (1 bit/chunk, never compacted — has_chunk must answer for the whole
/// stream) plus a time table (4 B/chunk) indexed by id - window_base():
/// containment and lookup are O(1) reads on the per-serve hot path. The
/// table is a paged RingLog, like every other windowed per-node log, and
/// holds each time as a 32-bit stamp from the log's first record
/// (src/common/stamp.hpp). A time more than 71.6 min past that base
/// stores StampBase::kNoFit and goes, exact, to a sorted exception list.
/// Long streamed runs call compact_before(horizon) once per fold to drop
/// the *times* of chunks older than the judgment horizon; that hands whole
/// pages back to the pool, it moves no entry. Delivery counts and presence
/// survive, so memory is O(window), not O(stream length). find() returns
/// nullopt for a folded chunk; callers that need folded times must consume
/// them before the fold (src/runtime/experiment.cpp's streamed health
/// does).
class DeliveryLog {
  /// A chunk id and its exact delivery time, for a time whose stamp did
  /// not fit.
  using Late = std::pair<std::size_t, TimePoint>;

 public:
  [[nodiscard]] bool contains(ChunkId id) const noexcept {
    const auto v = static_cast<std::size_t>(id.value());
    const std::size_t word = v / 64;
    return word < present_.size() &&
           (present_[word] >> (v % 64) & 1ULL) != 0;
  }

  /// Delivery time of `id`, or nullopt when the chunk never arrived (or
  /// its time was folded away by compact_before).
  [[nodiscard]] std::optional<TimePoint> find(ChunkId id) const noexcept {
    if (!contains(id)) return std::nullopt;
    const auto v = static_cast<std::size_t>(id.value());
    if (v < base_ || v - base_ >= at_.size()) return std::nullopt;
    return time_at(v);
  }

  /// Records the first delivery of `id`. Precondition: !contains(id).
  void record(ChunkId id, TimePoint at) {
    const auto v = static_cast<std::size_t>(id.value());
    const std::size_t word = v / 64;
    if (word >= present_.size()) present_.resize(word + 1, 0);
    LIFTING_ASSERT((present_[word] >> (v % 64) & 1ULL) == 0,
                   "chunk delivery recorded twice");
    present_[word] |= 1ULL << (v % 64);
    ++size_;
    if (v < base_) return;  // delivered after its window folded: count only
    while (at_.size() <= v - base_) at_.push_slot() = StampBase::kNoFit;
    const StampBase::Stamp s = stamps_.encode(at);
    at_[v - base_] = s;
    if (s != StampBase::kNoFit) return;
    late_.insert(late_bound(v), {v, at});
  }

  /// Number of chunks delivered (folded entries included).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Pages held by the time table (the presence bitmap is not paged).
  [[nodiscard]] std::size_t pages() const noexcept { return at_.pages(); }

  /// Pre-sizes the presence bitmap for a stream of `chunks` ids total, so
  /// steady-state record() calls never regrow it (the bitmap is the one
  /// DeliveryLog structure that scales with stream length, not window).
  void reserve_stream(std::size_t chunks) { present_.reserve(chunks / 64 + 1); }

  /// Drops the stored delivery times of every chunk with id < `horizon`.
  /// Presence (contains) and the delivery count are unaffected. Idempotent;
  /// horizons only move forward.
  void compact_before(ChunkId horizon) {
    const auto h = static_cast<std::size_t>(horizon.value());
    if (h <= base_) return;
    at_.pop_front(std::min(h - base_, at_.size()));
    base_ = h;
    late_.erase(late_.begin(), late_bound(h));
  }

  /// First id whose delivery time is still retained (0 when never folded).
  [[nodiscard]] ChunkId window_base() const noexcept {
    return ChunkId{static_cast<ChunkId::rep_type>(base_)};
  }

  /// Iteration over (chunk, time) for the retained window, in chunk-id
  /// order (delivery consumers are order-insensitive aggregations).
  class const_iterator {
   public:
    const_iterator(const DeliveryLog* log, std::size_t v) : log_(log), v_(v) {
      skip_absent();
    }
    [[nodiscard]] std::pair<ChunkId, TimePoint> operator*() const {
      return {ChunkId{static_cast<ChunkId::rep_type>(v_)},
              log_->time_at(v_)};
    }
    const_iterator& operator++() {
      ++v_;
      skip_absent();
      return *this;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.v_ == b.v_;
    }

   private:
    void skip_absent() {
      const std::size_t end = log_->base_ + log_->at_.size();
      while (v_ < end &&
             !log_->contains(ChunkId{static_cast<ChunkId::rep_type>(v_)})) {
        ++v_;
      }
      if (v_ > end) v_ = end;
    }
    const DeliveryLog* log_;
    std::size_t v_;
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator{this, base_};
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator{this, base_ + at_.size()};
  }

 private:
  /// Time of the present chunk `v` (base_ <= v < base_ + at_.size()).
  [[nodiscard]] TimePoint time_at(std::size_t v) const noexcept {
    const StampBase::Stamp s = at_[v - base_];
    if (s != StampBase::kNoFit) return stamps_.decode(s);
    const auto it = late_bound(v);
    LIFTING_ASSERT(it != late_.end() && it->first == v,
                   "delivery time missing from the exception list");
    return it->second;
  }
  /// First exception entry with id >= `v`.
  [[nodiscard]] RecycledVector<Late>::const_iterator late_bound(
      std::size_t v) const noexcept {
    return std::lower_bound(
        late_.begin(), late_.end(), v,
        [](const Late& e, std::size_t id) { return e.first < id; });
  }

  RecycledVector<std::uint64_t> present_;  // 1 bit per chunk id, full stream
  RingLog<StampBase::Stamp> at_;           // delivery stamps, ids >= base_
  StampBase stamps_;                       // based at the first record
  RecycledVector<Late> late_;              // stamps that did not fit, by id
  std::size_t base_ = 0;                   // id of at_[0]
  std::size_t size_ = 0;                   // chunks delivered, ever
};

/// A node's outstanding chunk requests: (chunk, deadline) entries on
/// RingLog pages, at most one per chunk, in no particular order. add()
/// appends the chunk's entry after dropping its old one and every entry
/// expired at `now` (an expired entry answers "requestable" just as an
/// absent one does, so dropping it changes no outcome). A serve moves the
/// last entry into the served one's slot. So the ring holds only the
/// requests still outstanding — a served one leaves at once, a lost one
/// at the first add() after its deadline — and its pages track that
/// count, not its all-time high-water. Deadlines are 32-bit stamps
/// (src/common/stamp.hpp), so an entry is 8 B.
class PendingRequests {
 public:
  /// Deadline of the request for `id`; TimePoint::min() when the chunk
  /// was never requested or its request was served. The chunk is
  /// requestable again once this is <= now.
  [[nodiscard]] TimePoint deadline(ChunkId id) const noexcept {
    TimePoint until = TimePoint::min();
    entries_.scan_back([&](std::span<const Entry> page) {
      for (const Entry& e : page) {
        if (e.chunk == id) {
          until = stamps_.decode(e.until);
          return true;
        }
      }
      return false;
    });
    return until;
  }

  /// Records a request for `id` expiring at `until`.
  void add(ChunkId id, TimePoint until, TimePoint now) {
    // One read-only pass decides; the rewrite below runs only when an
    // entry expired or `id` is being re-requested, which most calls skip.
    bool stale = false;
    entries_.scan_back([&](std::span<const Entry> page) {
      for (const Entry& e : page) {
        if (e.chunk == id || stamps_.decode(e.until) <= now) stale = true;
      }
      return stale;
    });
    if (stale) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry e = entries_[i];
        if (e.chunk != id && stamps_.decode(e.until) > now) {
          entries_[keep++] = e;
        }
      }
      entries_.pop_back(entries_.size() - keep);
    }
    const StampBase::Stamp s = stamps_.stamp(until, entries_, &Entry::until);
    entries_.push_slot() = Entry{id, s};
  }

  /// A serve of `id` arrived: its request is no longer outstanding.
  void clear(ChunkId id) noexcept {
    std::size_t end = entries_.size();
    std::size_t at = end;
    entries_.scan_back([&](std::span<const Entry> page) {
      end -= page.size();
      for (std::size_t j = 0; j < page.size(); ++j) {
        if (page[j].chunk == id) {
          at = end + j;
          return true;
        }
      }
      return false;
    });
    if (at == entries_.size()) return;
    entries_[at] = entries_.back();
    entries_.pop_back();
  }

  /// Entries held, expired ones not yet dropped included.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t pages() const noexcept { return entries_.pages(); }

 private:
  struct Entry {
    ChunkId chunk;
    StampBase::Stamp until;
  };
  static_assert(sizeof(Entry) == 8);
  RingLog<Entry> entries_;
  StampBase stamps_;
};

}  // namespace lifting::gossip

#endif  // LIFTING_GOSSIP_CHUNK_HPP
