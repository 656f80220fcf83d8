#ifndef LIFTING_COMMON_RING_LOG_HPP
#define LIFTING_COMMON_RING_LOG_HPP

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/small_vector.hpp"

/// A flat circular log: push at the back, prune from the front, O(1) both.
///
/// This is the storage behind the per-node accountability histories
/// (src/lifting/history.hpp) and the engine's sent-proposal window. Those
/// logs hold a sliding window of the last n_h periods, so a deque is the
/// obvious shape — but deques allocate per block, and a ring whose backing
/// buffer has grown to the window's high-water size never allocates again.
///
/// The histories keep only trivially copyable elements: a ring of small
/// per-entry keys plus rings of ids and varint bytes stored back to back,
/// filled with append() and drained with pop_front(n). The engine's window still keeps
/// SmallVector payloads in its slots, and for it a ring never destroys its
/// slots: pop_front() just advances the head index and the slot's payload
/// buffers stay allocated until the same slot is reused by a later
/// push_slot(). Contract for that slot reuse: refill payload containers
/// with `.assign()` / `.clear()` + `push_back`, never `operator=` —
/// SmallVector's assignment operators release the spilled buffer, which
/// would defeat the reuse.
///
/// Growth doubles the backing vector and linearizes the live entries (the
/// only moment entries are moved); capacity is never given back. The
/// backing storage is a RecycledVector, so growth reallocations (and the
/// final release at teardown) cycle through the thread's spill-block
/// cache instead of the system allocator.

namespace lifting {

template <typename T>
class RingLog {
 public:
  RingLog() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  /// Oldest-first access: (*this)[0] is the front, [size()-1] the back.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    LIFTING_ASSERT(i < size_, "RingLog index out of range");
    return buf_[wrap(head_ + i)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    LIFTING_ASSERT(i < size_, "RingLog index out of range");
    return buf_[wrap(head_ + i)];
  }

  [[nodiscard]] T& front() noexcept { return (*this)[0]; }
  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  /// Appends an entry and returns the (recycled) slot for the caller to
  /// fill. The slot holds whatever a previously pruned entry left behind —
  /// callers overwrite every field they read back.
  [[nodiscard]] T& push_slot() {
    if (size_ == buf_.size()) grow(size_ + 1);
    T& slot = buf_[wrap(head_ + size_)];
    ++size_;
    return slot;
  }

  /// Appends `n` elements copied from `first`.
  template <typename It>
  void append(It first, std::size_t n) {
    if (size_ + n > buf_.size()) grow(size_ + n);
    const std::size_t tail = wrap(head_ + size_);
    const std::size_t run = std::min(n, buf_.size() - tail);
    std::copy_n(first, run, buf_.begin() + static_cast<std::ptrdiff_t>(tail));
    std::copy_n(first + static_cast<std::ptrdiff_t>(run), n - run,
                buf_.begin());
    size_ += n;
  }

  /// Drops the `n` oldest entries without destroying their slots (payload
  /// capacity is recycled by a future push_slot()).
  void pop_front(std::size_t n = 1) noexcept {
    LIFTING_ASSERT(n <= size_, "pop_front past the end of a RingLog");
    head_ = wrap(head_ + n);
    size_ -= n;
  }

  /// The live range [pos, pos + n) as two contiguous pieces, oldest first;
  /// the second is empty unless the range wraps the buffer's physical end.
  [[nodiscard]] std::pair<std::span<const T>, std::span<const T>> spans(
      std::size_t pos, std::size_t n) const noexcept {
    LIFTING_ASSERT(pos + n <= size_, "RingLog span out of range");
    const std::size_t start = wrap(head_ + pos);
    const std::size_t run = std::min(n, buf_.size() - start);
    return {std::span<const T>(buf_.data() + start, run),
            std::span<const T>(buf_.data(), n - run)};
  }

  /// Forgets the live entries; slots (and their payload capacity) remain.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i < buf_.size() ? i : i - buf_.size();
  }

  /// Doubles the capacity (from 8) until it holds `needed` entries.
  void grow(std::size_t needed) {
    std::size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    while (new_cap < needed) new_cap *= 2;
    RecycledVector<T> next;
    next.reserve(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next.push_back(std::move((*this)[i]));
    }
    next.resize(new_cap);
    buf_.swap(next);
    head_ = 0;
  }

  RecycledVector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lifting

#endif  // LIFTING_COMMON_RING_LOG_HPP
