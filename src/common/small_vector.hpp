#ifndef LIFTING_COMMON_SMALL_VECTOR_HPP
#define LIFTING_COMMON_SMALL_VECTOR_HPP

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/block_pool.hpp"

/// A vector with inline storage for small element counts.
///
/// Gossip messages carry chunk-id sets of size ~|P| or ~|R| (single digits
/// to tens); storing them in std::vector makes every propose/request/ack a
/// heap allocation on both the send and the (pooled) delivery path. With
/// inline capacity sized to the common case, steady-state rounds build and
/// move these lists without touching the allocator; oversized lists spill
/// to the heap transparently.
///
/// Restricted to trivially copyable element types (ids, PODs) so moves and
/// growth are plain memcpy — exactly the payload shapes the wire messages
/// use.
///
/// Spill buffers are blocks of the thread's BlockPool
/// (src/common/block_pool.hpp): a list that outgrows its inline capacity
/// in one period hands its block back when it dies, and the next oversized
/// list takes it over — so steady-state rounds are allocation-free even
/// for the occasional spilled list, not just for the inline common case
/// (the per-period zero-allocation invariant bench_sweep_scaling asserts).

namespace lifting {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector is specialized for trivially copyable elements");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept = default;

  SmallVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  template <typename InputIt>
    requires(!std::is_integral_v<InputIt>)
  SmallVector(InputIt first, InputIt last) {
    assign(first, last);
  }

  explicit SmallVector(std::size_t count, const T& value = T{}) {
    resize(count, value);
  }

  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }

  SmallVector(SmallVector&& other) noexcept { steal(other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear_storage();
      assign(other.begin(), other.end());
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      clear_storage();
      steal(other);
    }
    return *this;
  }

  ~SmallVector() { clear_storage(); }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T& front() noexcept { return data_[0]; }
  [[nodiscard]] const T& front() const noexcept { return data_[0]; }
  [[nodiscard]] T& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data_[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      const T copy = value;  // `value` may alias an element being grown away
      grow(size_ + 1);
      data_[size_++] = copy;
      return;
    }
    data_[size_++] = value;
  }

  void pop_back() noexcept {
    LIFTING_ASSERT(size_ > 0, "pop_back on empty SmallVector");
    --size_;
  }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  void resize(std::size_t n, const T& value = T{}) {
    if (n > capacity_) {
      const T copy = value;  // `value` may alias an element being grown away
      grow(n);
      for (std::size_t i = size_; i < n; ++i) data_[i] = copy;
      size_ = n;
      return;
    }
    for (std::size_t i = size_; i < n; ++i) data_[i] = value;
    size_ = n;
  }

  iterator erase(const_iterator first, const_iterator last) {
    auto* f = const_cast<iterator>(first);
    auto* l = const_cast<iterator>(last);
    if (f != l) {
      std::memmove(f, l, static_cast<std::size_t>(end() - l) * sizeof(T));
      size_ -= static_cast<std::size_t>(l - f);
    }
    return f;
  }

  iterator insert(const_iterator pos, const T& value) {
    return insert(pos, &value, &value + 1);
  }

  /// Range insert. The source range must not alias this vector's storage
  /// (growth would invalidate it) — all in-tree callers insert from a
  /// different container. Multi-pass iterators only: the range is measured
  /// and then copied.
  template <std::forward_iterator InputIt>
  iterator insert(const_iterator pos, InputIt first, InputIt last) {
    const std::size_t offset = static_cast<std::size_t>(pos - begin());
    const std::size_t count = static_cast<std::size_t>(std::distance(first, last));
    if (size_ + count > capacity_) grow(size_ + count);
    T* p = data_ + offset;
    std::memmove(p + count, p, (size_ - offset) * sizeof(T));
    std::copy(first, last, p);
    size_ += count;
    return p;
  }

  template <typename InputIt>
  void assign(InputIt first, InputIt last) {
    clear();
    insert(end(), first, last);
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  void grow(std::size_t needed) {
    // Claim the whole block as capacity. The new capacity is at least 2,
    // so release_heap's capacity_ * sizeof(T) falls in the same class (the
    // floor division loses less than half a block).
    const std::size_t bytes = detail::BlockPool::block_bytes(
        std::max(capacity_ * 2, needed) * sizeof(T));
    T* heap = static_cast<T*>(detail::BlockPool::allocate(bytes));
    std::memcpy(heap, data_, size_ * sizeof(T));
    release_heap();
    data_ = heap;
    capacity_ = bytes / sizeof(T);
  }

  /// Returns a spilled buffer to the pool. No-op for inline storage.
  void release_heap() noexcept {
    if (data_ != inline_data()) {
      detail::BlockPool::deallocate(data_, capacity_ * sizeof(T));
    }
  }

  void clear_storage() noexcept {
    release_heap();
    data_ = inline_data();
    capacity_ = N;
    size_ = 0;
  }

  void steal(SmallVector& other) noexcept {
    if (other.data_ == other.inline_data()) {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      data_ = inline_data();
      capacity_ = N;
      size_ = other.size_;
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
    }
    other.size_ = 0;
  }

  [[nodiscard]] T* inline_data() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_));
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t capacity_ = N;
  std::size_t size_ = 0;
};

}  // namespace lifting

#endif  // LIFTING_COMMON_SMALL_VECTOR_HPP
