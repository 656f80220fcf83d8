#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "../bench/alloc_tally.hpp"
#include "common/ring_log.hpp"
#include "common/rng.hpp"
#include "lifting/history.hpp"

namespace lifting {
namespace {

TEST(SentProposalHistory, RecordsAndSnapshots) {
  SentProposalHistory history;
  history.record(kSimEpoch + seconds(1.0), 1, {NodeId{2}, NodeId{3}},
                 {ChunkId{10}});
  history.record(kSimEpoch + seconds(2.0), 2, {NodeId{4}}, {ChunkId{11}});
  EXPECT_EQ(history.size(), 2u);
  const auto snap = history.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].period, 1u);
  EXPECT_EQ(snap[0].partners.size(), 2u);
  EXPECT_EQ(snap[1].chunks, gossip::ChunkIdList{ChunkId{11}});
}

TEST(SentProposalHistory, PruneDropsOldEntriesOnly) {
  SentProposalHistory history;
  for (int i = 0; i < 10; ++i) {
    history.record(kSimEpoch + seconds(static_cast<double>(i)), i,
                   {NodeId{1}}, {ChunkId{static_cast<std::uint32_t>(i)}});
  }
  history.prune(kSimEpoch + seconds(5.0));
  EXPECT_EQ(history.size(), 5u);  // entries at t=5..9 survive
  EXPECT_EQ(history.snapshot().front().period, 5u);
}

TEST(ReceivedProposalLog, ConfirmsContainedChunksWithinWindow) {
  ReceivedProposalLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{7}, 3,
             {ChunkId{1}, ChunkId{2}, ChunkId{3}});
  // Subset of the proposal's chunks: confirmed.
  EXPECT_TRUE(log.confirms(NodeId{7}, {ChunkId{1}, ChunkId{3}}, kSimEpoch));
  // Chunk never proposed: denied.
  EXPECT_FALSE(log.confirms(NodeId{7}, {ChunkId{9}}, kSimEpoch));
  // Wrong proposer: denied.
  EXPECT_FALSE(log.confirms(NodeId{8}, {ChunkId{1}}, kSimEpoch));
  // Entry older than the window: denied.
  EXPECT_FALSE(
      log.confirms(NodeId{7}, {ChunkId{1}}, kSimEpoch + seconds(2.0)));
}

TEST(ReceivedProposalLog, ConfirmSearchesAcrossMultipleProposals) {
  ReceivedProposalLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{7}, 1, {ChunkId{1}});
  log.record(kSimEpoch + seconds(2.0), NodeId{7}, 2, {ChunkId{2}});
  EXPECT_TRUE(log.confirms(NodeId{7}, {ChunkId{1}}, kSimEpoch));
  EXPECT_TRUE(log.confirms(NodeId{7}, {ChunkId{2}}, kSimEpoch));
  // Chunks split across two proposals: no single proposal contains both.
  EXPECT_FALSE(log.confirms(NodeId{7}, {ChunkId{1}, ChunkId{2}}, kSimEpoch));
}

TEST(ReceivedProposalLog, PruneRespectsTimeOrder) {
  ReceivedProposalLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{7}, 1, {ChunkId{1}});
  log.record(kSimEpoch + seconds(5.0), NodeId{7}, 2, {ChunkId{2}});
  log.prune(kSimEpoch + seconds(3.0));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_FALSE(log.confirms(NodeId{7}, {ChunkId{1}}, kSimEpoch));
  EXPECT_TRUE(log.confirms(NodeId{7}, {ChunkId{2}}, kSimEpoch));
}

TEST(ConfirmAskerLog, CollectsAskersWithMultiplicity) {
  ConfirmAskerLog log;
  log.record(kSimEpoch, NodeId{5}, NodeId{1});
  log.record(kSimEpoch, NodeId{5}, NodeId{1});
  log.record(kSimEpoch, NodeId{5}, NodeId{2});
  log.record(kSimEpoch, NodeId{6}, NodeId{3});  // other subject
  const auto askers = log.askers_about(NodeId{5});
  ASSERT_EQ(askers.size(), 3u);
  EXPECT_EQ(std::count(askers.begin(), askers.end(), NodeId{1}), 2);
  EXPECT_EQ(std::count(askers.begin(), askers.end(), NodeId{2}), 1);
  EXPECT_TRUE(log.askers_about(NodeId{9}).empty());
}

TEST(RingLog, WrapAroundKeepsFifoOrderAcrossGrowth) {
  RingLog<int> ring;
  int next = 0;
  // Interleave pushes and pops so the live window crosses a page
  // boundary while the ring grows.
  std::vector<int> expect_front;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) ring.push_slot() = next++;
    ring.pop_front();
  }
  // 150 pushed, 50 popped: [50, 150) survive, oldest first.
  ASSERT_EQ(ring.size(), 100u);
  EXPECT_EQ(ring.front(), 50);
  EXPECT_EQ(ring.back(), 149);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], 50 + static_cast<int>(i));
  }
}

TEST(SentProposalHistory, RingRetentionUnderPeriodicPruning) {
  // Steady-state shape: one record per period, pruned to a fixed window —
  // the ring wraps many times and the window contents stay exact.
  SentProposalHistory history;
  const auto period = seconds(0.5);
  const auto window = seconds(5.0);
  for (int p = 0; p < 200; ++p) {
    const TimePoint now = kSimEpoch + p * period;
    history.record(now, static_cast<PeriodIndex>(p), {NodeId{1}, NodeId{2}},
                   {ChunkId{static_cast<std::uint32_t>(p)}});
    const TimePoint cutoff =
        now - std::min(now.time_since_epoch(), window);
    history.prune(cutoff);
    ASSERT_LE(history.size(), 11u);  // 5 s / 0.5 s + the fresh record
  }
  const auto snap = history.snapshot();
  ASSERT_EQ(snap.size(), 11u);
  EXPECT_EQ(snap.front().period, 189u);
  EXPECT_EQ(snap.back().period, 199u);
  EXPECT_EQ(snap.back().chunks, gossip::ChunkIdList{ChunkId{199}});
}

TEST(ReceivedProposalLog, WrapAroundConfirmsStayExact) {
  ReceivedProposalLog log;
  const auto period = seconds(0.5);
  for (int p = 0; p < 300; ++p) {
    const TimePoint now = kSimEpoch + p * period;
    log.record(now, NodeId{static_cast<std::uint32_t>(p % 5)},
               static_cast<PeriodIndex>(p),
               {ChunkId{static_cast<std::uint32_t>(p)}});
    log.prune(now - std::min(now.time_since_epoch(), seconds(2.0)));
  }
  // The prune cutoff trails the last record by 2 s, so the window is
  // [t=147.5, t=149.5]: periods 295..299 survive.
  EXPECT_FALSE(log.confirms(NodeId{0}, {ChunkId{290}}, kSimEpoch));
  EXPECT_TRUE(log.confirms(NodeId{295 % 5}, {ChunkId{295}}, kSimEpoch));
  EXPECT_TRUE(log.confirms(NodeId{299 % 5}, {ChunkId{299}}, kSimEpoch));
  // Wrong proposer for a surviving chunk: still denied after wraps.
  EXPECT_FALSE(log.confirms(NodeId{(295 % 5) + 1}, {ChunkId{295}},
                            kSimEpoch));
}

TEST(ConfirmAskerLog, PruneDropsOldAskers) {
  ConfirmAskerLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{5}, NodeId{1});
  log.record(kSimEpoch + seconds(4.0), NodeId{5}, NodeId{2});
  log.prune(kSimEpoch + seconds(2.0));
  const auto askers = log.askers_about(NodeId{5});
  ASSERT_EQ(askers.size(), 1u);
  EXPECT_EQ(askers[0], NodeId{2});
}

TEST(ReceivedProposalLog, HasFindsLoggedProposalsOnly) {
  ReceivedProposalLog log;
  log.record(kSimEpoch + seconds(1.0), NodeId{7}, 3, {ChunkId{1}});
  log.record(kSimEpoch + seconds(2.0), NodeId{8}, 3, {});
  EXPECT_TRUE(log.has(NodeId{7}, 3));
  EXPECT_TRUE(log.has(NodeId{8}, 3));  // an empty proposal still counts
  EXPECT_FALSE(log.has(NodeId{7}, 4));  // right proposer, other period
  EXPECT_FALSE(log.has(NodeId{9}, 3));  // right period, other proposer
  log.prune(kSimEpoch + seconds(1.5));
  EXPECT_FALSE(log.has(NodeId{7}, 3));
  EXPECT_TRUE(log.has(NodeId{8}, 3));
}

TEST(ReceivedProposalLog, HasStaysExactAfterIdRingWraps) {
  // 40 ids per proposal and a 4-entry window: the id ring wraps every few
  // records, so the surviving keys' runs straddle its physical end.
  ReceivedProposalLog log;
  gossip::ChunkIdList ids;
  for (std::uint32_t i = 0; i < 40; ++i) ids.push_back(ChunkId{i});
  for (PeriodIndex p = 0; p < 100; ++p) {
    const TimePoint now = kSimEpoch + seconds(static_cast<double>(p));
    log.record(now, NodeId{p % 3}, p, ids);
    log.prune(now - seconds(3.0));
  }
  EXPECT_EQ(log.size(), 4u);
  for (PeriodIndex p = 96; p < 100; ++p) {
    EXPECT_TRUE(log.has(NodeId{p % 3}, p));
  }
  EXPECT_FALSE(log.has(NodeId{95 % 3}, 95));
  EXPECT_FALSE(log.has(NodeId{(99 % 3) + 1}, 99));
  EXPECT_TRUE(log.confirms(NodeId{99 % 3}, {ChunkId{0}, ChunkId{39}},
                           kSimEpoch));
}

TEST(ReceivedProposalLog, MatchesNaiveReferenceAcrossIdRingWraps) {
  // Runs of 1, 28 and 40 ids (28 and 40 spill past ChunkIdList's 8-id
  // inline capacity), pruned to a sliding window: thousands of ids flow
  // through a ring a few hundred ids large, wrapping it many times. Every
  // answer must match a log that stores each proposal whole.
  struct Ref {
    TimePoint at;
    NodeId from;
    PeriodIndex period;
    gossip::ChunkIdList chunks;
  };
  std::deque<Ref> ref;
  ReceivedProposalLog log;
  Pcg32 rng(42, 7);
  constexpr std::uint32_t kRuns[] = {1, 28, 40};
  std::uint32_t next_chunk = 0;
  for (PeriodIndex p = 0; p < 600; ++p) {
    const TimePoint now = kSimEpoch + milliseconds(100) * p;
    gossip::ChunkIdList chunks;
    for (std::uint32_t i = 0; i < kRuns[p % 3]; ++i) {
      chunks.push_back(ChunkId{next_chunk++});
    }
    const NodeId from{rng.below(5)};
    log.record(now, from, p / 2, chunks);
    ref.push_back(Ref{now, from, p / 2, chunks});
    if (p % 4 == 3) {  // prune in bursts so several entries leave at once
      const TimePoint cutoff = now - milliseconds(1000);
      log.prune(cutoff);
      while (!ref.empty() && ref.front().at < cutoff) ref.pop_front();
    }
    ASSERT_EQ(log.size(), ref.size());

    const NodeId subject{rng.below(5)};
    const PeriodIndex period =
        p / 2 - std::min<PeriodIndex>(p / 2, rng.below(8));
    const bool want_has =
        std::any_of(ref.begin(), ref.end(), [&](const Ref& r) {
          return r.from == subject && r.period == period;
        });
    ASSERT_EQ(log.has(subject, period), want_has) << "p=" << p;

    // Ids are unique, so a query hits only when one proposal of `subject`
    // holds all of it: a run of neighbouring ids, often split by the wrap.
    gossip::ChunkIdList query;
    const std::uint32_t first =
        next_chunk - 1 - rng.below(std::min(next_chunk, 300u));
    const std::uint32_t q = rng.below(4);
    for (std::uint32_t i = 0; i < q; ++i) {
      query.push_back(ChunkId{first + i * rng.below(3)});
    }
    const TimePoint since = now - milliseconds(100) * rng.below(12);
    const bool want_confirm =
        std::any_of(ref.begin(), ref.end(), [&](const Ref& r) {
          if (r.at < since || r.from != subject) return false;
          return std::all_of(query.begin(), query.end(), [&](ChunkId c) {
            return std::find(r.chunks.begin(), r.chunks.end(), c) !=
                   r.chunks.end();
          });
        });
    ASSERT_EQ(log.confirms(subject, query, since), want_confirm) << "p=" << p;
  }
}

TEST(ReceivedProposalLog, MatchesNaiveReferenceAcrossGapsPastTheStampReach) {
  // A clock that starts hours in (as a daemon's does) and twice jumps
  // 75 min, past a stamp's 71.6 min reach, sometimes before the window is
  // pruned: has, confirms and prune must answer as a log that stores each
  // time whole.
  struct Ref {
    TimePoint at;
    NodeId from;
    PeriodIndex period;
    gossip::ChunkIdList chunks;
  };
  std::deque<Ref> ref;
  ReceivedProposalLog log;
  Pcg32 rng(5, 3);
  TimePoint now = kSimEpoch + std::chrono::hours(5);
  std::uint32_t next_chunk = 0;
  for (PeriodIndex p = 0; p < 600; ++p) {
    now += p % 200 == 199 ? Duration{std::chrono::minutes(75)}
                          : milliseconds(100);
    gossip::ChunkIdList chunks;
    for (std::uint32_t i = 1 + rng.below(12); i-- > 0;) {
      chunks.push_back(ChunkId{next_chunk++});
    }
    const NodeId from{rng.below(5)};
    log.record(now, from, p / 2, chunks);
    ref.push_back(Ref{now, from, p / 2, chunks});
    if (p % 4 == 3) {
      const TimePoint cutoff = now - milliseconds(1000);
      log.prune(cutoff);
      while (!ref.empty() && ref.front().at < cutoff) ref.pop_front();
    }
    ASSERT_EQ(log.size(), ref.size()) << "p=" << p;

    const NodeId subject{rng.below(5)};
    const PeriodIndex period =
        p / 2 - std::min<PeriodIndex>(p / 2, rng.below(8));
    const bool want_has =
        std::any_of(ref.begin(), ref.end(), [&](const Ref& r) {
          return r.from == subject && r.period == period;
        });
    ASSERT_EQ(log.has(subject, period), want_has) << "p=" << p;

    gossip::ChunkIdList query;
    const std::uint32_t first =
        next_chunk - 1 - rng.below(std::min(next_chunk, 60u));
    for (std::uint32_t i = rng.below(3); i-- > 0;) {
      query.push_back(ChunkId{first + i});
    }
    const TimePoint since = now - milliseconds(100) * rng.below(12);
    const bool want_confirm =
        std::any_of(ref.begin(), ref.end(), [&](const Ref& r) {
          if (r.at < since || r.from != subject) return false;
          return std::all_of(query.begin(), query.end(), [&](ChunkId c) {
            return std::find(r.chunks.begin(), r.chunks.end(), c) !=
                   r.chunks.end();
          });
        });
    ASSERT_EQ(log.confirms(subject, query, since), want_confirm) << "p=" << p;
  }
}

/// A chunk-id run in one of the shapes the varint codec must round-trip:
/// neighbouring ids out of order, duplicates, steps across the full 32-bit
/// range, or nothing at all.
gossip::ChunkIdList scattered_run(Pcg32& rng, std::uint32_t base) {
  gossip::ChunkIdList run;
  switch (rng.below(5)) {
    case 0:  // empty proposal
      break;
    case 1:  // neighbouring ids, shuffled, with a duplicate
      for (std::uint32_t i = rng.below(40); i-- > 0;) {
        run.push_back(ChunkId{base + rng.below(70)});
      }
      if (!run.empty()) run.push_back(run.front());
      rng.shuffle(run);
      break;
    case 2:  // the range's extremes: 5-byte varints both ways
      run = {ChunkId{0}, ChunkId{0xFFFFFFFF}, ChunkId{0}, ChunkId{base},
             ChunkId{0xFFFFFFFF}, ChunkId{0x80000000}};
      break;
    case 3:  // anywhere in the range
      for (std::uint32_t i = 1 + rng.below(12); i-- > 0;) {
        run.push_back(ChunkId{rng.next()});
      }
      break;
    default:  // descending neighbours
      for (std::uint32_t i = 1 + rng.below(30); i-- > 0;) {
        run.push_back(ChunkId{base + 3 * i});
      }
      break;
  }
  return run;
}

TEST(ChunkRunCodec, RoundTripsEveryShapeAcrossTheByteRingEnd) {
  RingLog<std::uint8_t> ring;
  const auto encode = [&](const gossip::ChunkIdList& run) {
    return detail::encode_run(run, ring);
  };
  // One byte per step within ±63; a step across the full 32-bit range
  // takes 5 bytes each way.
  EXPECT_EQ(encode({ChunkId{10}, ChunkId{11}, ChunkId{9}}), 3u);
  EXPECT_EQ(encode({ChunkId{0}, ChunkId{0xFFFFFFFF}, ChunkId{0}}), 11u);
  EXPECT_EQ(encode({}), 0u);
  ring.clear();

  Pcg32 rng(1202, 3);
  std::deque<std::pair<gossip::ChunkIdList, std::uint32_t>> live;
  std::size_t straddled = 0;
  for (std::uint32_t i = 0; i < 400; ++i) {
    gossip::ChunkIdList run = scattered_run(rng, i * 29);
    const std::size_t pos = ring.size();
    const std::uint32_t bytes = encode(run);
    EXPECT_LE(bytes, 5 * run.size());
    std::size_t pieces = 0;
    ring.for_each_span(pos, bytes, [&](auto) { ++pieces; });
    if (pieces > 1) ++straddled;
    live.emplace_back(std::move(run), bytes);
    while (live.size() > 3) {  // keep the ring small so pages recycle often
      ring.pop_front(live.front().second);
      live.pop_front();
    }
    std::size_t at = 0;
    for (const auto& [want, n] : live) {
      gossip::ChunkIdList got;
      detail::decode_run(ring, at, n, got);
      ASSERT_EQ(got, want) << "record " << i;
      at += n;
    }
  }
  EXPECT_GT(straddled, 10u);
}

TEST(ReceivedProposalLog, MatchesNaiveReferenceOnScatteredRuns) {
  // Unsorted runs, duplicate ids, full-range steps and empty proposals
  // through a sliding window: every answer must match a log that stores
  // each proposal whole. Queries draw from a live proposal so they hit.
  struct Ref {
    TimePoint at;
    NodeId from;
    PeriodIndex period;
    gossip::ChunkIdList chunks;
  };
  std::deque<Ref> ref;
  ReceivedProposalLog log;
  Pcg32 rng(7, 11);
  std::size_t hits = 0;
  for (PeriodIndex p = 0; p < 800; ++p) {
    const TimePoint now = kSimEpoch + milliseconds(100) * p;
    const gossip::ChunkIdList chunks = scattered_run(rng, p * 13);
    const NodeId from{rng.below(4)};
    log.record(now, from, p, chunks);
    ref.push_back(Ref{now, from, p, chunks});
    const TimePoint cutoff = now - milliseconds(700);
    log.prune(cutoff);
    while (!ref.empty() && ref.front().at < cutoff) ref.pop_front();
    ASSERT_EQ(log.size(), ref.size());

    const Ref& pick = ref[rng.below(static_cast<std::uint32_t>(ref.size()))];
    gossip::ChunkIdList query;
    for (std::uint32_t i = rng.below(4); i-- > 0 && !pick.chunks.empty();) {
      query.push_back(pick.chunks[rng.below(
          static_cast<std::uint32_t>(pick.chunks.size()))]);
    }
    if (rng.below(3) == 0) query.push_back(ChunkId{rng.next()});
    const NodeId subject = rng.below(4) == 0 ? NodeId{rng.below(4)} : pick.from;
    const TimePoint since = now - milliseconds(100) * rng.below(8);
    const bool want =
        std::any_of(ref.begin(), ref.end(), [&](const Ref& r) {
          if (r.at < since || r.from != subject) return false;
          return std::all_of(query.begin(), query.end(), [&](ChunkId c) {
            return std::find(r.chunks.begin(), r.chunks.end(), c) !=
                   r.chunks.end();
          });
        });
    hits += want ? 1 : 0;
    ASSERT_EQ(log.confirms(subject, query, since), want) << "p=" << p;
    ASSERT_TRUE(log.has(pick.from, pick.period));
  }
  EXPECT_GT(hits, 200u);
}

TEST(SentProposalHistory, SnapshotRoundTripsScatteredRunsAcrossWraps) {
  // The audit reply must carry each proposal's ids exactly as recorded:
  // same ids, same order, duplicates kept, after the rings wrapped.
  SentProposalHistory history;
  std::deque<std::pair<PeriodIndex, gossip::ChunkIdList>> ref;
  Pcg32 rng(99, 5);
  for (PeriodIndex p = 0; p < 300; ++p) {
    const TimePoint now = kSimEpoch + milliseconds(500) * p;
    gossip::ChunkIdList chunks = scattered_run(rng, p * 17);
    history.record(now, p, {NodeId{p % 7}}, chunks);
    ref.emplace_back(p, std::move(chunks));
    history.prune(now - seconds(2.0));
    while (ref.size() > history.size()) ref.pop_front();
  }
  const auto snap = history.snapshot();
  ASSERT_EQ(snap.size(), ref.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].period, ref[i].first);
    EXPECT_EQ(snap[i].partners,
              std::vector<NodeId>{NodeId{ref[i].first % 7}});
    EXPECT_EQ(snap[i].chunks, ref[i].second) << "period " << ref[i].first;
  }
}

TEST(SentProposalHistory, SnapshotRebuildsLongRuns) {
  // 9 partners and 40 chunks: the rebuilt ChunkIdList spills past its
  // 8-id inline capacity, and the key's partner run is longer than the
  // planetlab fanout.
  SentProposalHistory history;
  std::vector<NodeId> partners;
  for (std::uint32_t i = 0; i < 9; ++i) partners.push_back(NodeId{100 + i});
  gossip::ChunkIdList chunks;
  for (std::uint32_t i = 0; i < 40; ++i) chunks.push_back(ChunkId{i * 3});
  history.record(kSimEpoch + seconds(1.0), 4, {NodeId{1}, NodeId{2}},
                 {ChunkId{5}});
  history.record(kSimEpoch + seconds(2.0), 5, partners, chunks);
  history.record(kSimEpoch + seconds(3.0), 6, {}, {});
  const auto snap = history.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].partners, (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
  EXPECT_EQ(snap[0].chunks, gossip::ChunkIdList{ChunkId{5}});
  EXPECT_EQ(snap[1].period, 5u);
  EXPECT_EQ(snap[1].partners, partners);
  EXPECT_EQ(snap[1].chunks, chunks);
  EXPECT_TRUE(snap[2].partners.empty());
  EXPECT_TRUE(snap[2].chunks.empty());
  history.prune(kSimEpoch + seconds(1.5));
  const auto pruned = history.snapshot();
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_EQ(pruned[0].partners, partners);
  EXPECT_EQ(pruned[0].chunks, chunks);
}

TEST(RingLog, FifoOrderAcrossPagesAndFullPageRecycle) {
  constexpr std::size_t kPer = RingLog<int>::kPerPage;
  RingLog<int> ring;
  int next = 0;
  for (std::size_t i = 0; i < 3 * kPer + 5; ++i) ring.push_slot() = next++;
  ASSERT_EQ(ring.pages(), 4u);  // three page boundaries crossed
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ASSERT_EQ(ring[i], static_cast<int>(i));
  }
  const int* first_page = &ring.front();
  const std::size_t idle = detail::BlockPool::idle_blocks(kPageBytes);
  ring.pop_front(kPer - 1);
  EXPECT_EQ(ring.pages(), 4u);  // the head page still holds one entry
  ring.pop_front();
  EXPECT_EQ(ring.pages(), 3u);  // emptied: back to the pool
  EXPECT_EQ(detail::BlockPool::idle_blocks(kPageBytes), idle + 1);
  EXPECT_EQ(ring.front(), static_cast<int>(kPer));
  // The tail page fills, and the next one is the page just released.
  while (ring.size() < 3 * kPer) ring.push_slot() = next++;
  ring.push_slot() = next++;
  EXPECT_EQ(&ring.back(), first_page);
  EXPECT_EQ(detail::BlockPool::idle_blocks(kPageBytes), idle);
  ASSERT_EQ(ring.size(), 3 * kPer + 1);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ASSERT_EQ(ring[i], static_cast<int>(kPer + i));
  }
}

TEST(RingLog, AppendAndPopRunsStraddlePages) {
  constexpr std::size_t kPer = RingLog<int>::kPerPage;
  RingLog<int> ring;
  std::vector<int> run(kPer + 10);
  for (std::size_t i = 0; i < run.size(); ++i) run[i] = static_cast<int>(i);
  ring.append(run.data(), kPer - 3);
  ring.append(run.data(), 7);  // [kPer - 3, kPer + 4): straddles page 0|1
  ASSERT_EQ(ring.pages(), 2u);
  std::vector<std::size_t> pieces;
  std::vector<int> joined;
  ring.for_each_span(kPer - 3, 7, [&](std::span<const int> piece) {
    pieces.push_back(piece.size());
    joined.insert(joined.end(), piece.begin(), piece.end());
  });
  EXPECT_EQ(pieces, (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(joined, std::vector<int>(run.begin(), run.begin() + 7));
  ring.pop_front(kPer + 1);  // a pop run across the boundary frees page 0
  EXPECT_EQ(ring.pages(), 1u);
  EXPECT_EQ(ring.front(), 4);
  ring.append(run.data(), run.size());  // longer than a page: three pieces
  ASSERT_EQ(ring.size(), 3 + run.size());
  EXPECT_EQ(ring.pages(), 2u);
  std::vector<int> tail;
  ring.for_each_span(3, run.size(), [&](std::span<const int> piece) {
    tail.insert(tail.end(), piece.begin(), piece.end());
  });
  EXPECT_EQ(tail, run);
  std::vector<int> newest_first;
  ring.scan_back([&](std::span<const int> piece) {
    newest_first.insert(newest_first.end(), piece.rbegin(), piece.rend());
    return false;
  });
  ASSERT_EQ(newest_first.size(), ring.size());
  EXPECT_EQ(newest_first.front(), run.back());
  EXPECT_EQ(newest_first.back(), 4);
}

TEST(ChunkRunCodec, DecodesAVarintSplitAcrossPages) {
  RingLog<std::uint8_t> ring;
  const std::vector<std::uint8_t> pad(kPageBytes - 2, 0);
  ring.append(pad.data(), pad.size());
  // 0 -> 0xFFFFFFFF is a 5-byte varint; it starts 2 bytes before the end
  // of the first page and finishes 3 bytes into the second.
  const gossip::ChunkIdList run{ChunkId{0xFFFFFFFF}, ChunkId{7}};
  const std::size_t pos = ring.size();
  const std::uint32_t bytes = detail::encode_run(run, ring);
  ASSERT_EQ(bytes, 10u);
  ASSERT_EQ(ring.pages(), 2u);
  gossip::ChunkIdList got;
  detail::decode_run(ring, pos, bytes, got);
  EXPECT_EQ(got, run);
  ring.pop_front(pad.size());  // the codec works from any head offset
  got.clear();
  detail::decode_run(ring, 0, bytes, got);
  EXPECT_EQ(got, run);
}

TEST(RingLog, CyclingRingsHoldConstantPagesWithoutAllocating) {
  // Two rings of different element types fill and drain once per
  // generation. The pool hands blocks back newest first, so each
  // generation's ints take blocks the lists released last time: any
  // page serves either ring. The list ring keeps spilled 400 B payloads,
  // which share the pages' 512 B class: they go back to the pool when
  // their page is released and come out of it when a page is constructed
  // again.
  RingLog<int> ints;
  RingLog<gossip::ChunkIdList> lists;
  std::vector<ChunkId> big;
  for (std::uint32_t i = 0; i < 100; ++i) big.push_back(ChunkId{i});
  // Whole pages per generation: a drained ring then keeps no head page,
  // and every generation starts from the same page alignment.
  constexpr std::size_t kInts = 8 * RingLog<int>::kPerPage;
  constexpr std::size_t kLists = 13 * RingLog<gossip::ChunkIdList>::kPerPage;
  std::vector<std::size_t> held;
  held.reserve(32);
  const auto generation = [&] {
    for (std::size_t i = 0; i < kInts; ++i) ints.push_slot() = int(i);
    for (std::size_t i = 0; i < kLists; ++i) {
      lists.push_slot().assign(big.begin(), big.end());  // spills
    }
    held.push_back(ints.pages() + lists.pages());
    if (lists.back() != gossip::ChunkIdList(big.begin(), big.end())) {
      held.push_back(0);  // fails the comparison below
    }
    ints.pop_front(kInts);
    lists.pop_front(kLists);
  };
  generation();  // grows the pool, the page tables and the caches
  const std::size_t idle = detail::BlockPool::idle_blocks(kPageBytes);
  const auto start = bench::AllocSnapshot::now();
  for (int g = 0; g < 20; ++g) generation();
  const auto cost = bench::AllocSnapshot::now().delta_since(start);
  EXPECT_EQ(cost.calls, 0u);
  EXPECT_EQ(detail::BlockPool::idle_blocks(kPageBytes), idle);
  EXPECT_EQ(held, std::vector<std::size_t>(21, held.front()));
  EXPECT_EQ(held.front(), 21u);
}

TEST(RingLog, PopBackReleasesEmptiedTailPages) {
  constexpr std::size_t kPer = RingLog<std::uint64_t>::kPerPage;
  RingLog<std::uint64_t> ring;
  for (std::uint64_t i = 0; i < 3 * kPer + 5; ++i) ring.push_slot() = i;
  ASSERT_EQ(ring.pages(), 4u);
  const std::size_t idle = detail::BlockPool::idle_blocks(kPageBytes);
  ring.pop_back(5);  // empties the tail page
  EXPECT_EQ(ring.pages(), 3u);
  EXPECT_EQ(detail::BlockPool::idle_blocks(kPageBytes), idle + 1);
  EXPECT_EQ(ring.back(), 3 * kPer - 1);
  ring.pop_back(1);  // the tail page keeps live entries
  EXPECT_EQ(ring.pages(), 3u);
  // From both ends: the live entries [kPer / 2, 2 * kPer) touch 2 pages.
  ring.pop_front(kPer / 2);
  ring.pop_back(kPer - 1);
  EXPECT_EQ(ring.pages(), 2u);
  ASSERT_EQ(ring.size(), kPer + kPer / 2);
  EXPECT_EQ(ring.front(), kPer / 2);
  EXPECT_EQ(ring.back(), 2 * kPer - 1);
  // Pushing after a pop_back refills the tail in order.
  ring.push_slot() = 7;
  EXPECT_EQ(ring.pages(), 3u);
  EXPECT_EQ(ring.back(), 7u);
  EXPECT_EQ(ring[ring.size() - 2], 2 * kPer - 1);
  // Emptied from the back, a ring keeps its head page only when the front
  // sits inside it, as pop_front does.
  ring.pop_back(ring.size());
  EXPECT_EQ(ring.pages(), 1u);
  RingLog<std::uint64_t> aligned;
  for (std::uint64_t i = 0; i < kPer + 1; ++i) aligned.push_slot() = i;
  aligned.pop_back(aligned.size());
  EXPECT_EQ(aligned.pages(), 0u);
}

TEST(RingLog, PagesOutliveTheThreadThatTookThem) {
  // A runner lane may destroy an Experiment another thread built: its
  // pages must stay valid after that thread and its pool are gone.
  std::unique_ptr<RingLog<std::uint64_t>> ring;
  std::thread lane([&] {
    ring = std::make_unique<RingLog<std::uint64_t>>();
    for (std::uint64_t i = 0; i < 1000; ++i) ring->push_slot() = i;
    ring->pop_front(200);  // some pages go to the lane's pool, then die
  });
  lane.join();
  ASSERT_EQ(ring->size(), 800u);
  for (std::size_t i = 0; i < ring->size(); ++i) {
    ASSERT_EQ((*ring)[i], 200 + i);
  }
  ring->pop_front(800);  // into this thread's pool
  ring.reset();
}

}  // namespace
}  // namespace lifting
