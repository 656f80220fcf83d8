#ifndef LIFTING_COMMON_STAMP_HPP
#define LIFTING_COMMON_STAMP_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "common/ring_log.hpp"
#include "common/time.hpp"

/// Exact 4-byte log timestamps (DESIGN.md §9).
///
/// Every per-node log stores its times as 32-bit microsecond offsets
/// ("stamps") from one base TimePoint per log, instead of 8-byte
/// TimePoints. A stamp reaches kReach = 2^32 − 2 µs (71.6 min) past the
/// base; the all-ones stamp kNoFit marks a time that does not fit. The
/// base is the first time the log encodes.
///
/// A windowed log, whose live entries span at most its retention window,
/// stamps through stamp(): when a new time would not fit, the log rebases
/// onto its earliest live time (or the new time, if earlier) and every
/// live stamp is re-encoded, O(live) once per 71.6 min. So any run length
/// stays exact, provided the retention window stays under the reach
/// (LiftingParams::validate checks it). The DeliveryLog, whose table
/// spans the whole stream, keeps its base and sends a time that does not
/// fit to an exception list.

namespace lifting {

class StampBase {
 public:
  using Stamp = std::uint32_t;
  /// A time before the base or more than kReach past it.
  static constexpr Stamp kNoFit = 0xFFFFFFFFU;
  /// The latest offset a stamp holds.
  static constexpr Duration kReach{kNoFit - 1};

  /// The offset of `t` from the base, or kNoFit when it does not fit. The
  /// first call sets the base to `t`.
  [[nodiscard]] Stamp encode(TimePoint t) noexcept {
    if (base_ == kUnset) base_ = t;
    if (t < base_ || t - base_ > kReach) return kNoFit;
    return static_cast<Stamp>((t - base_).count());
  }

  /// The time a stamp encode() returned stands for.
  [[nodiscard]] TimePoint decode(Stamp s) const noexcept {
    LIFTING_ASSERT(s != kNoFit, "decoding a stamp that did not fit");
    return base_ + Duration{s};
  }

  /// Stamps `t` for a windowed log whose live entries are `ring`, each
  /// holding its stamp in `field`. When `t` does not fit, first rebases:
  /// the base moves to the earliest of `t` and the live times, but no
  /// earlier than kReach before `t`, and every live stamp is re-encoded. A
  /// live entry older than that (a window left unpruned across a gap, as
  /// in a daemon resumed from suspension) gets stamp 0: it still reads
  /// older than any time after t − kReach, so every prune cutoff and
  /// confirm horizon within the retention window answers exactly.
  template <typename T>
  [[nodiscard]] Stamp stamp(TimePoint t, RingLog<T>& ring, Stamp T::*field) {
    if (const Stamp s = encode(t); s != kNoFit) return s;
    TimePoint floor = t;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      floor = std::min(floor, decode(ring[i].*field));
    }
    floor = std::max(floor, t - kReach);
    const TimePoint old = base_;
    base_ = floor;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      Stamp& s = ring[i].*field;
      const TimePoint at = old + Duration{s};
      s = at < floor ? 0 : encode(at);
      LIFTING_ASSERT(s != kNoFit, "a live stamp lies kReach past a new one");
    }
    return encode(t);
  }

 private:
  static constexpr TimePoint kUnset = TimePoint::min();
  TimePoint base_ = kUnset;
};

}  // namespace lifting

#endif  // LIFTING_COMMON_STAMP_HPP
