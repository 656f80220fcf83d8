#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#include "../bench/alloc_tally.hpp"
#include "common/block_pool.hpp"
#include "common/ring_log.hpp"
#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "common/stamp.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"

namespace lifting {
namespace {

// ---------------------------------------------------------- block pool

using detail::BlockPool;

TEST(BlockPool, RoundsUpToAClassAndPassesLargeSizesThrough) {
  EXPECT_EQ(BlockPool::block_bytes(1), 64u);
  EXPECT_EQ(BlockPool::block_bytes(65), 128u);
  EXPECT_EQ(BlockPool::block_bytes(512), 512u);
  EXPECT_EQ(BlockPool::block_bytes(64 * 1024), 64u * 1024);
  EXPECT_EQ(BlockPool::block_bytes(64 * 1024 + 1), 64u * 1024 + 1);
  // A class block comes back to its list and is the next one taken.
  void* p = BlockPool::allocate(300);
  const std::size_t idle = BlockPool::idle_blocks(512);
  BlockPool::deallocate(p, 300);
  EXPECT_EQ(BlockPool::idle_blocks(512), idle + 1);
  EXPECT_EQ(BlockPool::allocate(512), p);
  BlockPool::deallocate(p, 512);
  // Past the largest class a block goes back to the allocator.
  const std::size_t idle_bytes = BlockPool::idle_bytes();
  BlockPool::deallocate(BlockPool::allocate(64 * 1024 + 1), 64 * 1024 + 1);
  EXPECT_EQ(BlockPool::idle_bytes(), idle_bytes);
  EXPECT_EQ(BlockPool::idle_blocks(64 * 1024 + 1), 0u);
  // A spilled SmallVector claims its whole block: 17 ids need 68 B, so
  // they sit in a 128 B block of 32 ids.
  const SmallVector<std::uint32_t, 2> ids(17, 5);
  EXPECT_EQ(ids.capacity(), 32u);
}

TEST(BlockPool, CapsEachClassAtEightMiBIdle) {
  static_assert(BlockPool::kMaxClassBytes / 512 == 16384);
  std::thread([] {  // a fresh thread starts with empty lists
    std::vector<void*> blocks(16385);
    for (void*& b : blocks) b = BlockPool::allocate(512);
    for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
      BlockPool::deallocate(blocks[i], 512);
    }
    EXPECT_EQ(BlockPool::idle_blocks(512), 16384u);
    const std::uint64_t live = bench::AllocSnapshot::now().live;
    BlockPool::deallocate(blocks.back(), 512);  // the 16,385th
    EXPECT_EQ(BlockPool::idle_blocks(512), 16384u);
    EXPECT_LT(bench::AllocSnapshot::now().live, live);
  }).join();
}

TEST(BlockPool, ABlockFreedOnAnotherThreadJoinsThatThreadsLists) {
  void* block = BlockPool::allocate(200);
  const std::size_t here = BlockPool::idle_blocks(256);
  std::size_t there = 0;
  void* retaken = nullptr;
  std::thread([&] {
    BlockPool::deallocate(block, 200);
    there = BlockPool::idle_blocks(256);
    retaken = BlockPool::allocate(256);
    BlockPool::deallocate(retaken, 256);
  }).join();
  EXPECT_EQ(there, 1u);
  EXPECT_EQ(retaken, block);
  EXPECT_EQ(BlockPool::idle_blocks(256), here);
}

TEST(BlockPool, ReleaseIdleFreesEveryIdleBlockAndThePoolStaysOpen) {
  std::thread([] {
    BlockPool::deallocate(BlockPool::allocate(512), 512);
    BlockPool::deallocate(BlockPool::allocate(100), 100);
    ASSERT_EQ(BlockPool::idle_bytes(), 512u + 128u);
    const std::uint64_t live = bench::AllocSnapshot::now().live;
    BlockPool::release_idle();
    EXPECT_EQ(BlockPool::idle_bytes(), 0u);
    EXPECT_LE(bench::AllocSnapshot::now().live + 512 + 128, live);

    void* block = BlockPool::allocate(512);  // a fresh block
    BlockPool::deallocate(block, 512);
    EXPECT_EQ(BlockPool::idle_blocks(512), 1u);  // kept again
    EXPECT_EQ(BlockPool::allocate(512), block);
    BlockPool::deallocate(block, 512);
  }).join();
}

TEST(BlockPool, AThreadLocalDestroyedAfterThePoolFreesItsBlock) {
  // A thread_local built before its thread first uses the pool is
  // destroyed after the pool's thread-exit drain: its spilled block must
  // go straight to the allocator, and nothing may stay behind.
  const std::uint64_t live = bench::AllocSnapshot::now().live;
  std::thread([] {
    thread_local SmallVector<std::uint64_t, 2> late;
    {
      const SmallVector<std::uint64_t, 2> first(40, 1);  // first pool use
    }
    late.resize(40, 7);  // re-takes the block `first` released
    EXPECT_EQ(late.capacity(), 64u);
  }).join();
  EXPECT_EQ(bench::AllocSnapshot::now().live, live);
}

// ---------------------------------------------------------- strong ids

TEST(StrongId, DistinctTypesDoNotMix) {
  static_assert(!std::is_convertible_v<NodeId, ChunkId>);
  static_assert(!std::is_convertible_v<std::uint32_t, NodeId>);
  const NodeId a{3};
  const NodeId b{4};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(NodeId{3}, a);
}

TEST(StrongId, HashableInUnorderedContainers) {
  std::unordered_set<NodeId> set;
  set.insert(NodeId{1});
  set.insert(NodeId{1});
  set.insert(NodeId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, IncrementForDenseGeneration) {
  ChunkId id{10};
  ++id;
  EXPECT_EQ(id, ChunkId{11});
}

// ---------------------------------------------------------------- time

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ(milliseconds(500).count(), 500'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  const TimePoint t = kSimEpoch + seconds(1.0);
  EXPECT_DOUBLE_EQ(to_seconds(t), 1.0);
}

TEST(SimTime, PeriodArithmetic) {
  const Duration tg = milliseconds(500);
  EXPECT_EQ(seconds(25.0) / tg, 50);  // n_h = h / Tg
}

// --------------------------------------------------------------- stamps

TEST(StampBase, RoundTripsUpToTheReachAndFlagsWhatDoesNotFit) {
  StampBase stamps;
  const TimePoint base = kSimEpoch + seconds(7.5);
  EXPECT_EQ(stamps.encode(base), 0u);  // the first time sets the base
  EXPECT_EQ(stamps.decode(0), base);
  EXPECT_EQ(StampBase::kReach.count(), (std::int64_t{1} << 32) - 2);
  const TimePoint last = base + StampBase::kReach;
  EXPECT_EQ(stamps.encode(last), 0xFFFFFFFEu);
  EXPECT_EQ(stamps.decode(stamps.encode(last)), last);
  const TimePoint mid = base + std::chrono::minutes(40) + microseconds(3);
  EXPECT_EQ(stamps.decode(stamps.encode(mid)), mid);
  EXPECT_EQ(stamps.encode(last + microseconds(1)), StampBase::kNoFit);
  EXPECT_EQ(stamps.encode(base - microseconds(1)), StampBase::kNoFit);
  EXPECT_EQ(stamps.encode(base), 0u);  // the base stays where it was set
}

struct StampedEntry {
  StampBase::Stamp at = 0;
  int value = 0;
};

/// Appends `value` at time `t` the way the windowed logs do.
void push_stamped(StampBase& stamps, RingLog<StampedEntry>& ring,
                  TimePoint t, int value) {
  const StampBase::Stamp at = stamps.stamp(t, ring, &StampedEntry::at);
  ring.push_slot() = StampedEntry{at, value};
}

TEST(StampBase, WindowedStampRebasesOntoTheOldestLiveTime) {
  StampBase stamps;
  RingLog<StampedEntry> ring;
  const TimePoint t0 = kSimEpoch + std::chrono::hours(5);
  const auto minutes = [](int m) { return Duration{std::chrono::minutes(m)}; };
  push_stamped(stamps, ring, t0, 0);
  push_stamped(stamps, ring, t0 + minutes(50), 1);
  push_stamped(stamps, ring, t0 + minutes(60), 2);
  ring.pop_front();  // the window slides past t0
  // 80 min past the base: the log rebases onto its oldest live entry.
  push_stamped(stamps, ring, t0 + minutes(80), 3);
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].at, 0u);
  EXPECT_EQ(stamps.decode(ring[0].at), t0 + minutes(50));
  EXPECT_EQ(stamps.decode(ring[1].at), t0 + minutes(60));
  EXPECT_EQ(stamps.decode(ring[2].at), t0 + minutes(80));
  EXPECT_EQ(ring[2].value, 3);

  // A gap past the reach with the window left unpruned: an entry older
  // than kReach before the new time reads as exactly that old, so it
  // still sorts before every later cutoff; the rest stay exact.
  const TimePoint late = t0 + minutes(125);
  push_stamped(stamps, ring, late, 4);
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(stamps.decode(ring[0].at), late - StampBase::kReach);
  EXPECT_EQ(stamps.decode(ring[1].at), t0 + minutes(60));
  EXPECT_EQ(stamps.decode(ring[2].at), t0 + minutes(80));
  EXPECT_EQ(stamps.decode(ring[3].at), late);
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Pcg32 a{123, 7};
  Pcg32 b{123, 7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentStreamsDiffer) {
  Pcg32 a{123, 1};
  Pcg32 b{123, 2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Pcg32 rng{99};
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Pcg32 rng{5};
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Pcg32 rng{17};
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.07)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.07, 0.005);
}

TEST(Rng, BernoulliEdgeCases) {
  Pcg32 rng{17};
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BinomialMoments) {
  Pcg32 rng{31};
  const int trials = 20000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto k = rng.binomial(12, 0.3);
    ASSERT_LE(k, 12u);
    sum += k;
    sum2 += static_cast<double>(k) * k;
  }
  const double mean = sum / trials;
  const double var = sum2 / trials - mean * mean;
  EXPECT_NEAR(mean, 12 * 0.3, 0.05);
  EXPECT_NEAR(var, 12 * 0.3 * 0.7, 0.1);
}

TEST(Rng, PoissonMoments) {
  Pcg32 rng{41};
  const int trials = 30000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto k = rng.poisson(7.0);
    sum += k;
    sum2 += static_cast<double>(k) * k;
  }
  const double mean = sum / trials;
  const double var = sum2 / trials - mean * mean;
  EXPECT_NEAR(mean, 7.0, 0.1);
  EXPECT_NEAR(var, 7.0, 0.25);
}

TEST(Rng, SampleKDistinctProducesDistinctInRange) {
  Pcg32 rng{55};
  for (int trial = 0; trial < 50; ++trial) {
    const auto picks = sample_k_distinct(rng, 20, 12);
    ASSERT_EQ(picks.size(), 12u);
    std::set<std::uint32_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 12u);
    for (const auto p : picks) EXPECT_LT(p, 20u);
  }
}

TEST(Rng, SampleKDistinctFullRange) {
  Pcg32 rng{56};
  const auto picks = sample_k_distinct(rng, 5, 5);
  std::set<std::uint32_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleKDistinctIsApproximatelyUniform) {
  Pcg32 rng{57};
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (const auto p : sample_k_distinct(rng, 10, 3)) ++counts[p];
  }
  // Each element is chosen with probability 3/10.
  for (const auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

TEST(Rng, RoundRandomizedIsUnbiased) {
  Pcg32 rng{58};
  const double x = 3.7;
  double sum = 0.0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    const auto v = round_randomized(rng, x);
    ASSERT_TRUE(v == 3 || v == 4);
    sum += v;
  }
  EXPECT_NEAR(sum / trials, x, 0.02);
}

TEST(Rng, DeriveRngIndependentStreams) {
  auto a = derive_rng(1234, 1);
  auto b = derive_rng(1234, 2);
  auto a2 = derive_rng(1234, 1);
  EXPECT_EQ(a.next(), a2.next());
  EXPECT_NE(a.next(), b.next());
}

// ------------------------------------------------------ unique function

TEST(UniqueFunction, CallsMoveOnlyLambda) {
  auto ptr = std::make_unique<int>(41);
  UniqueFunction<int()> fn = [p = std::move(ptr)] { return *p + 1; };
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(), 42);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  UniqueFunction<int(int)> fn = [](int x) { return x * 2; };
  UniqueFunction<int(int)> other = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(other(21), 42);
}

TEST(UniqueFunction, EmptyByDefault) {
  UniqueFunction<void()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

// --------------------------------------------------------------- table

TEST(TextTable, RendersAlignedRows) {
  TextTable table({"a", "bbbb"});
  table.add_row({"1", "2"});
  table.add_row({TextTable::num(3.14159, 2), "x"});
  std::ostringstream os;
  table.print(os);
  const auto out = os.str();
  EXPECT_NE(out.find("bbbb"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  // 3 separator lines + header + 2 rows = 6 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(Require, ThrowsOnViolation) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "bad config"), std::invalid_argument);
}

}  // namespace
}  // namespace lifting
