#ifndef LIFTING_COMMON_BLOCK_POOL_HPP
#define LIFTING_COMMON_BLOCK_POOL_HPP

#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

/// The one recycler behind every growable per-node structure: RingLog
/// pages (src/common/ring_log.hpp), spilled SmallVector payloads
/// (src/common/small_vector.hpp), RecycledVector growth blocks and
/// make_recycled objects.
///
/// Blocks come in eleven power-of-two classes, 64 B to 64 KiB, shared
/// across element types and users: a page a log released can come back
/// as a page-table block or a spilled proposal list of the same class.
/// Larger requests pass straight through at their exact size, so
/// million-node arrays cost exact bytes, not next-power-of-two bytes.
///
/// Each class is a free list threaded through its idle blocks, so a
/// release never allocates. At most kMaxClassBytes sit idle per class; a
/// block past that goes back to the allocator, so a one-off burst cannot
/// hoard memory for the rest of the thread's life.
///
/// The lists are thread-local: runner lanes never contend or share
/// blocks. Each block is its own operator new block, so a block may be
/// released on another thread than the one that took it (a lane that
/// destroys an Experiment built elsewhere adopts its blocks). At thread
/// exit the idle blocks are freed and the pool closes; a block released
/// after that, by a thread_local destroyed later, goes straight to
/// operator delete.

namespace lifting {

namespace detail {

class BlockPool {
 public:
  static constexpr std::size_t kMinBytes = 64;
  static constexpr std::size_t kMaxBytes = 64 * 1024;
  static constexpr std::size_t kMaxClassBytes = 8 * 1024 * 1024;

  /// Size of the block allocate(bytes) hands out: the smallest class
  /// covering `bytes`, or `bytes` itself above kMaxBytes.
  [[nodiscard]] static constexpr std::size_t block_bytes(
      std::size_t bytes) noexcept {
    const std::size_t cls = class_of(bytes);
    return cls < kClasses ? kMinBytes << cls : bytes;
  }

  /// A block of block_bytes(bytes): this thread's newest idle one of its
  /// class, else a fresh one.
  [[nodiscard]] static void* allocate(std::size_t bytes) {
    const std::size_t cls = class_of(bytes);
    if (cls < kClasses) {
      State& s = state();
      if (void* p = s.free[cls]) {
        std::memcpy(&s.free[cls], p, sizeof(void*));  // alias-safe link read
        --s.idle[cls];
        return p;
      }
    }
    return ::operator new(block_bytes(bytes));
  }

  /// Takes back a block allocate(bytes) handed out, on any thread.
  static void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = class_of(bytes);
    if (cls < kClasses) {
      State& s = state();
      if (!s.closed &&
          (s.idle[cls] + 1) * (kMinBytes << cls) <= kMaxClassBytes) {
        std::memcpy(p, &s.free[cls], sizeof(void*));
        s.free[cls] = p;
        ++s.idle[cls];
        return;
      }
    }
    ::operator delete(p);
  }

  /// Idle blocks this thread holds in the class of `bytes` (none above
  /// kMaxBytes).
  [[nodiscard]] static std::size_t idle_blocks(std::size_t bytes) noexcept {
    const std::size_t cls = class_of(bytes);
    return cls < kClasses ? state().idle[cls] : 0;
  }

  /// Frees every idle block this thread holds. The pool stays open, so
  /// blocks released later are kept again. A tally that must not depend on
  /// what earlier work on this thread left idle starts here.
  static void release_idle() noexcept { release_idle(state()); }

  /// Bytes idle in this thread's lists, waiting for a taker.
  [[nodiscard]] static std::size_t idle_bytes() noexcept {
    const State& s = state();
    std::size_t bytes = 0;
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      bytes += s.idle[cls] * (kMinBytes << cls);
    }
    return bytes;
  }

 private:
  static constexpr std::size_t kClasses =
      std::bit_width(kMaxBytes / kMinBytes);  // 64 B << 10 == 64 KiB

  /// Class index of `bytes`; kClasses and up pass through.
  [[nodiscard]] static constexpr std::size_t class_of(
      std::size_t bytes) noexcept {
    if (bytes <= kMinBytes) return 0;
    return static_cast<std::size_t>(std::bit_width(bytes - 1)) -
           static_cast<std::size_t>(std::bit_width(kMinBytes - 1));
  }

  /// Trivially destructible, so it stays usable after the Drain below ran.
  struct State {
    void* free[kClasses] = {};
    std::size_t idle[kClasses] = {};
    bool closed = false;
  };
  static void release_idle(State& s) noexcept {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      while (s.free[cls] != nullptr) {
        void* p = s.free[cls];
        std::memcpy(&s.free[cls], p, sizeof(void*));
        ::operator delete(p);
      }
      s.idle[cls] = 0;
    }
  }
  struct Drain {
    State* s;
    ~Drain() {
      release_idle(*s);
      s->closed = true;
    }
  };
  [[nodiscard]] static State& state() noexcept {
    thread_local State s;
    thread_local Drain drain{&s};
    return s;
  }
};

}  // namespace detail

/// std::allocator drop-in on the BlockPool. The per-node containers that
/// are not windowed logs (flat verifier and manager tables, the delivery
/// presence bitmap, engine scratch, RingLog page tables) use it via
/// RecycledVector, so their growth reallocations recycle blocks freed by
/// earlier growth.
template <typename T>
struct RecycledAllocator {
  using value_type = T;

  RecycledAllocator() noexcept = default;
  template <typename U>
  RecycledAllocator(const RecycledAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(detail::BlockPool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::BlockPool::deallocate(p, n * sizeof(T));
  }

  template <typename U>
  friend bool operator==(const RecycledAllocator&,
                         const RecycledAllocator<U>&) noexcept {
    return true;
  }
};

/// std::vector on the block pool — the default storage for per-node
/// bookkeeping that grows at runtime.
template <typename T>
using RecycledVector = std::vector<T, RecycledAllocator<T>>;

/// Bytes the pool holds for `v`: its capacity rounded up to a block.
template <typename T>
[[nodiscard]] std::size_t held_bytes(const RecycledVector<T>& v) noexcept {
  return v.capacity() == 0
             ? 0
             : detail::BlockPool::block_bytes(v.capacity() * sizeof(T));
}

/// unique_ptr deleter of make_recycled objects: destroys the object and
/// hands its block back to the pool.
template <typename T>
struct RecycledDelete {
  void operator()(T* p) const noexcept {
    p->~T();
    RecycledAllocator<T>{}.deallocate(p, 1);
  }
};
template <typename T>
using RecycledPtr = std::unique_ptr<T, RecycledDelete<T>>;

/// A single object on a pool block — for optional per-node state that is
/// built on demand, so a reset lane re-takes the blocks the previous run's
/// nodes released.
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

}  // namespace lifting

#endif  // LIFTING_COMMON_BLOCK_POOL_HPP
