#ifndef LIFTING_COMMON_SMALL_VECTOR_HPP
#define LIFTING_COMMON_SMALL_VECTOR_HPP

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

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
/// Spill buffers are recycled through a thread-local size-class cache
/// (SpillCache below): a list that outgrows its inline capacity in one
/// period hands its heap block back when it dies, and the next oversized
/// list takes it over — so steady-state rounds are allocation-free even
/// for the occasional spilled list, not just for the inline common case
/// (the per-period zero-allocation invariant bench_sweep_scaling asserts).

namespace lifting {

namespace detail {

/// Thread-local recycler for SmallVector spill blocks. Blocks are
/// power-of-two sized (64 B .. 64 KiB; larger ones bypass the cache) and
/// shared across element types — a freed propose list can come back as a
/// request list. Per-class population is capped so a one-off burst cannot
/// hoard memory forever. Thread-local by design: experiments on parallel
/// runner workers never contend or share blocks.
class SpillCache {
 public:
  static constexpr std::size_t kMinBytes = 64;
  static constexpr std::size_t kMaxBytes = 64 * 1024;
  /// Cached bytes per class are capped, so a one-off burst can hoard at
  /// most kClasses * kMaxClassBytes per thread before blocks flow back to
  /// the allocator.
  static constexpr std::size_t kMaxClassBytes = 8 * 1024 * 1024;

  /// Smallest cacheable power-of-two block covering `bytes`.
  [[nodiscard]] static std::size_t block_bytes(std::size_t bytes) noexcept {
    std::size_t b = kMinBytes;
    while (b < bytes) b <<= 1;
    return b;
  }

  /// A recycled block of exactly block_bytes(bytes), or nullptr.
  [[nodiscard]] static void* take(std::size_t bytes) noexcept {
    const std::size_t cls = class_of(bytes);
    if (cls >= kClasses) return nullptr;
    auto& list = lists()[cls];
    if (list.empty()) return nullptr;
    void* p = list.back();
    list.pop_back();
    return p;
  }

  /// Offers a block back; false means the caller must operator delete it.
  /// The freelist itself grows amortized (and only to a new high-water
  /// population) — once a workload's peak block count has been seen, puts
  /// are allocation-free.
  [[nodiscard]] static bool put(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = class_of(bytes);
    if (cls >= kClasses) return false;
    auto& list = lists()[cls];
    if ((list.size() + 1) * (kMinBytes << cls) > kMaxClassBytes) return false;
    try {
      list.push_back(p);
    } catch (...) {
      return false;
    }
    return true;
  }

  /// Bytes held in this thread's free lists, waiting for a taker.
  [[nodiscard]] static std::size_t idle_bytes() noexcept {
    std::size_t bytes = 0;
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      bytes += lists()[cls].size() * (kMinBytes << cls);
    }
    return bytes;
  }

 private:
  static constexpr std::size_t kClasses = 11;  // 64 << 10 == 64 KiB

  [[nodiscard]] static std::size_t class_of(std::size_t bytes) noexcept {
    std::size_t cls = 0;
    std::size_t b = kMinBytes;
    while (b < bytes) {
      b <<= 1;
      ++cls;
    }
    return cls;
  }

  struct Store {
    std::vector<void*> lists[kClasses];
    ~Store() {
      for (auto& list : lists) {
        for (void* p : list) ::operator delete(p);
      }
    }
  };
  [[nodiscard]] static std::vector<void*>* lists() {
    thread_local Store store;
    return store.lists;
  }
};

}  // namespace detail

/// std::allocator drop-in that routes cacheable sizes through the
/// SpillCache. The per-node containers that are not windowed logs (flat
/// verifier tables, the delivery presence bitmap, engine scratch, RingLog
/// page tables) use it via RecycledVector so their growth reallocations
/// recycle blocks freed by earlier growth. Windowed logs live on RingLog
/// pages instead (src/common/ring_log.hpp). Together with SmallVector's
/// spilled payloads, every steady-state byte of a warmed deployment comes
/// out of the thread's caches, never the system allocator (the
/// zero-allocation window bench_sweep_scaling asserts). Blocks above
/// SpillCache::kMaxBytes pass straight through, so million-node arrays
/// cost exact bytes, not next-power-of-two bytes.
template <typename T>
struct RecycledAllocator {
  using value_type = T;

  RecycledAllocator() noexcept = default;
  template <typename U>
  RecycledAllocator(const RecycledAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes <= detail::SpillCache::kMaxBytes) {
      if (void* p = detail::SpillCache::take(
              detail::SpillCache::block_bytes(bytes))) {
        return static_cast<T*>(p);
      }
      return static_cast<T*>(
          ::operator new(detail::SpillCache::block_bytes(bytes)));
    }
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    const std::size_t block = bytes <= detail::SpillCache::kMaxBytes
                                  ? detail::SpillCache::block_bytes(bytes)
                                  : bytes;
    if (!detail::SpillCache::put(p, block)) ::operator delete(p);
  }

  template <typename U>
  friend bool operator==(const RecycledAllocator&,
                         const RecycledAllocator<U>&) noexcept {
    return true;
  }
};

/// std::vector on the spill-block recycler — the default storage for
/// per-node bookkeeping that grows at runtime.
template <typename T>
using RecycledVector = std::vector<T, RecycledAllocator<T>>;

/// unique_ptr deleter of make_recycled objects: destroys the object and
/// hands its block back to the SpillCache.
template <typename T>
struct RecycledDelete {
  void operator()(T* p) const noexcept {
    p->~T();
    RecycledAllocator<T>{}.deallocate(p, 1);
  }
};
template <typename T>
using RecycledPtr = std::unique_ptr<T, RecycledDelete<T>>;

/// A single object on a SpillCache block — for optional per-node state that
/// is built on demand, so a reset lane re-takes the blocks the previous
/// run's nodes released.
template <typename T, typename... Args>
[[nodiscard]] RecycledPtr<T> make_recycled(Args&&... args) {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  RecycledAllocator<T> alloc;
  T* p = alloc.allocate(1);
  try {
    ::new (static_cast<void*>(p)) T(std::forward<Args>(args)...);
  } catch (...) {
    alloc.deallocate(p, 1);
    throw;
  }
  return RecycledPtr<T>(p);
}

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
    std::size_t new_cap = capacity_ * 2;
    if (new_cap < needed) new_cap = needed;
    std::size_t bytes = new_cap * sizeof(T);
    if (bytes <= detail::SpillCache::kMaxBytes) {
      // Round the request up to the cache's block size and claim the whole
      // block as capacity. new_cap >= 2 here, so recomputing
      // block_bytes(capacity_ * sizeof(T)) at release time recovers the
      // same class (the floor division below loses less than half a block).
      bytes = detail::SpillCache::block_bytes(bytes);
      new_cap = bytes / sizeof(T);
    }
    T* heap = static_cast<T*>(detail::SpillCache::take(bytes));
    if (heap == nullptr) heap = static_cast<T*>(::operator new(bytes));
    std::memcpy(heap, data_, size_ * sizeof(T));
    release_heap();
    data_ = heap;
    capacity_ = new_cap;
  }

  /// Returns a spilled buffer to the cache (or the allocator). No-op for
  /// inline storage.
  void release_heap() noexcept {
    if (data_ == inline_data()) return;
    const std::size_t bytes = capacity_ * sizeof(T);
    const std::size_t block = bytes <= detail::SpillCache::kMaxBytes
                                  ? detail::SpillCache::block_bytes(bytes)
                                  : bytes;
    if (!detail::SpillCache::put(data_, block)) ::operator delete(data_);
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
