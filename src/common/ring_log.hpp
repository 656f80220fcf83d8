#ifndef LIFTING_COMMON_RING_LOG_HPP
#define LIFTING_COMMON_RING_LOG_HPP

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>

#include "common/assert.hpp"
#include "common/block_pool.hpp"

/// A paged FIFO log: push at the back, prune from the front, O(1) both.
///
/// This is the storage behind every windowed per-node structure: the
/// accountability histories (src/lifting/history.hpp), the engine's
/// sent-proposal window, fresh-chunk list and pending-request table, and
/// the DeliveryLog's time table (src/gossip/chunk.hpp). Each holds a
/// sliding window, so its memory should track the window, not how the
/// window grew.
///
/// A ring is a table of fixed-size pages (kPageBytes), each one block of
/// the thread's BlockPool (src/common/block_pool.hpp). Appending at the
/// tail takes a page when the last one is full; popping the head past a
/// page's end returns that page to the pool, and so does popping the tail
/// (pop_back) out of a page. Nothing is ever copied into a larger block,
/// so growth strands no memory: a page another ring released serves the
/// next grower, whatever its element type, and so does any other 512 B
/// block the pool holds. Entries never move while they are live.
///
/// Elements are constructed when their page is taken and destroyed when
/// it is released (for trivially copyable elements both are no-ops). A
/// slot returned by push_slot() therefore holds either a fresh element or
/// what a pruned entry of the same page left behind — callers overwrite
/// every field they read back. For payload-owning elements (the engine's
/// SmallVector window), refill with `.assign()` / `.clear()` +
/// `push_back`, never `operator=`: SmallVector's assignment releases the
/// spilled buffer the slot already owns. A released page's spill blocks
/// go back to the pool with the elements' destructors.
///
/// Readers of runs walk for_each_span() / scan_back(), which hand out the
/// live range one page-contiguous piece at a time.

namespace lifting {

/// Page size of every RingLog, measured (DESIGN.md §9): 512 B read lowest
/// on the full-window rows, and 1024 B pages leave more of each small
/// log's head and tail pages empty.
inline constexpr std::size_t kPageBytes = 512;

static_assert(detail::BlockPool::block_bytes(kPageBytes) == kPageBytes,
              "a page is one block-pool class");

template <typename T>
class RingLog {
  static_assert(sizeof(T) <= kPageBytes, "RingLog element exceeds a page");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  static constexpr std::size_t kPerPage = kPageBytes / sizeof(T);

  RingLog() = default;
  RingLog(const RingLog&) = delete;
  RingLog& operator=(const RingLog&) = delete;
  ~RingLog() { release_front(pages_.size()); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Pages this ring holds: those its live entries touch. An emptied ring
  /// keeps its head page unless the last pop ended on a page boundary.
  [[nodiscard]] std::size_t pages() const noexcept { return pages_.size(); }

  /// Oldest-first access: (*this)[0] is the front, [size()-1] the back.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    LIFTING_ASSERT(i < size_, "RingLog index out of range");
    return slot(head_ + i);
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    LIFTING_ASSERT(i < size_, "RingLog index out of range");
    return slot(head_ + i);
  }

  [[nodiscard]] T& front() noexcept { return (*this)[0]; }
  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  /// Appends an entry and returns its slot for the caller to fill.
  [[nodiscard]] T& push_slot() {
    const std::size_t at = head_ + size_;
    if (at == pages_.size() * kPerPage) take_page();
    ++size_;
    return slot(at);
  }

  /// Appends `n` elements copied from the random-access range at `first`.
  template <typename It>
  void append(It first, std::size_t n) {
    while (n > 0) {
      const std::size_t at = head_ + size_;
      if (at == pages_.size() * kPerPage) take_page();
      const std::size_t off = at % kPerPage;
      const std::size_t run = std::min(n, kPerPage - off);
      std::copy_n(first, run, pages_[at / kPerPage] + off);
      first = std::next(first, static_cast<std::ptrdiff_t>(run));
      size_ += run;
      n -= run;
    }
  }

  /// Drops the `n` oldest entries; pages they empty go back to the pool.
  void pop_front(std::size_t n = 1) noexcept {
    LIFTING_ASSERT(n <= size_, "pop_front past the end of a RingLog");
    head_ += n;
    size_ -= n;
    const std::size_t done = head_ / kPerPage;
    release_front(done);
    head_ -= done * kPerPage;
  }

  /// Drops the `n` newest entries; tail pages left with no live entry go
  /// back to the pool.
  void pop_back(std::size_t n = 1) noexcept {
    LIFTING_ASSERT(n <= size_, "pop_back past the front of a RingLog");
    size_ -= n;
    const std::size_t used = (head_ + size_ + kPerPage - 1) / kPerPage;
    for (std::size_t i = used; i < pages_.size(); ++i) {
      std::destroy_n(pages_[i], kPerPage);
      detail::BlockPool::deallocate(pages_[i], kPageBytes);
    }
    pages_.resize(std::min(used, pages_.size()));
  }

  /// Calls `f(std::span<const T>)` on the live range [pos, pos + n), one
  /// page-contiguous piece at a time, oldest first.
  template <typename F>
  void for_each_span(std::size_t pos, std::size_t n, F&& f) const {
    LIFTING_ASSERT(pos + n <= size_, "RingLog span out of range");
    std::size_t at = head_ + pos;
    while (n > 0) {
      const std::size_t off = at % kPerPage;
      const std::size_t run = std::min(n, kPerPage - off);
      f(std::span<const T>(pages_[at / kPerPage] + off, run));
      at += run;
      n -= run;
    }
  }

  /// Calls `f(std::span<const T>)` on the live entries newest page first,
  /// until it returns true; returns whether it did. Each span is in
  /// oldest-first order, so a newest-first scan walks it backwards.
  template <typename F>
  bool scan_back(F&& f) const {
    std::size_t end = head_ + size_;
    while (end > head_) {
      const std::size_t page = (end - 1) / kPerPage;
      const std::size_t begin = std::max(head_, page * kPerPage);
      if (f(std::span<const T>(pages_[page] + (begin - page * kPerPage),
                               end - begin))) {
        return true;
      }
      end = begin;
    }
    return false;
  }

  /// Forgets the live entries and returns every page to the pool.
  void clear() noexcept {
    release_front(pages_.size());
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] T& slot(std::size_t at) const noexcept {
    return pages_[at / kPerPage][at % kPerPage];
  }

  void take_page() {
    T* page = static_cast<T*>(detail::BlockPool::allocate(kPageBytes));
    std::uninitialized_default_construct_n(page, kPerPage);
    pages_.push_back(page);
  }

  void release_front(std::size_t n) noexcept {
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      std::destroy_n(pages_[i], kPerPage);
      detail::BlockPool::deallocate(pages_[i], kPageBytes);
    }
    pages_.erase(pages_.begin(),
                 pages_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  RecycledVector<T*> pages_;  // page table, oldest page first
  std::size_t head_ = 0;      // offset of the front entry in pages_[0]
  std::size_t size_ = 0;
};

}  // namespace lifting

#endif  // LIFTING_COMMON_RING_LOG_HPP
