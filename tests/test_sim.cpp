#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace lifting::sim {
namespace {

// ------------------------------------------------------------ event queue

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(kSimEpoch + milliseconds(20), [&] { order.push_back(2); });
  q.push(kSimEpoch + milliseconds(10), [&] { order.push_back(1); });
  q.push(kSimEpoch + milliseconds(30), [&] { order.push_back(3); });
  while (!q.empty()) {
    auto [at, action] = q.pop();
    action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto t = kSimEpoch + milliseconds(5);
  for (int i = 0; i < 10; ++i) {
    q.push(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SameTimestampFifoAcrossMixedPushes) {
  // Regression for the timing-wheel rewrite: interleaving pushes at
  // different instants within one wheel slot must still pop same-timestamp
  // events in push order.
  EventQueue q;
  std::vector<int> order;
  const auto t1 = kSimEpoch + microseconds(100);
  const auto t2 = kSimEpoch + microseconds(200);
  q.push(t2, [&] { order.push_back(20); });
  q.push(t1, [&] { order.push_back(10); });
  q.push(t2, [&] { order.push_back(21); });
  q.push(t1, [&] { order.push_back(11); });
  q.push(t2, [&] { order.push_back(22); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 22}));
}

TEST(EventQueue, FarFutureEventsOverflowAndReturnInOrder) {
  // Events beyond the wheel horizon park in the overflow heap and must
  // merge back in exact (time, seq) order.
  EventQueue q;
  std::vector<int> order;
  q.push(kSimEpoch + seconds(100.0), [&] { order.push_back(3); });
  q.push(kSimEpoch + microseconds(50), [&] { order.push_back(1); });
  q.push(kSimEpoch + seconds(50.0), [&] { order.push_back(2); });
  q.push(kSimEpoch + seconds(100.0), [&] { order.push_back(4); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, PushBehindPeekedCursorRewinds) {
  // next_time() may advance the cursor far ahead (run_until peeking);
  // a later push at an earlier time must still pop first, including when
  // it lands in a slot already holding a later wheel-revolution event.
  EventQueue q;
  std::vector<int> order;
  q.push(kSimEpoch + seconds(100.0), [&] { order.push_back(9); });
  EXPECT_EQ(q.next_time(), kSimEpoch + seconds(100.0));  // cursor jumped
  q.push(kSimEpoch + milliseconds(1), [&] { order.push_back(1); });
  q.push(kSimEpoch + seconds(60.0), [&] { order.push_back(5); });
  EXPECT_EQ(q.next_time(), kSimEpoch + milliseconds(1));
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 9}));
}

TEST(EventQueue, EventsScheduledWhileDrainingKeepOrder) {
  // Pushes into the instant currently being drained (the dirty-tail path).
  Simulator sim;
  std::vector<int> order;
  const auto t = kSimEpoch + milliseconds(3);
  sim.schedule_at(t, [&] {
    order.push_back(0);
    sim.schedule_at(t, [&] { order.push_back(2); });
    sim.schedule_at(t + microseconds(1), [&] { order.push_back(3); });
  });
  sim.schedule_at(t, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SingleOutstandingEventChainStaysOrdered) {
  // The min-event stash fast path: a chain that always holds exactly one
  // event (push into empty queue, then pop) must behave identically to the
  // general path — including across the wheel horizon and time ties.
  EventQueue q;
  std::vector<int> popped;
  auto t = kSimEpoch;
  for (int i = 0; i < 1000; ++i) {
    t += microseconds(10);
    q.push(t, [&popped, i] { popped.push_back(i); });
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.next_time(), t);
    q.pop().second();
  }
  // Far-future single event (would overflow the wheel) is stashed too.
  q.push(kSimEpoch + seconds(1000.0), [&] { popped.push_back(1000); });
  EXPECT_EQ(q.next_time(), kSimEpoch + seconds(1000.0));
  q.pop().second();
  ASSERT_EQ(popped.size(), 1001u);
  for (int i = 0; i <= 1000; ++i) EXPECT_EQ(popped[i], i);
}

TEST(EventQueue, StashDemotionPreservesTotalOrder) {
  // A stashed front must yield to a strictly earlier newcomer (and keep
  // priority over an equal-time one — its sequence number is lower).
  EventQueue q;
  std::vector<int> order;
  const auto t = kSimEpoch + milliseconds(10);
  q.push(t, [&] { order.push_back(1); });                       // stashed
  q.push(t, [&] { order.push_back(2); });                       // tie: stash wins
  q.push(t - milliseconds(5), [&] { order.push_back(0); });     // demotes stash
  q.push(t + milliseconds(5), [&] { order.push_back(3); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, StashDemotionIntoHarvestedTailKeepsTieOrder) {
  // Regression: a demoted stash entry appended to the cursor's harvested
  // order_ carries an OLDER seq than a later push at the same instant —
  // the tail must be flagged for a re-sort or same-instant events run out
  // of scheduling order.
  EventQueue q;
  std::vector<int> order;
  const auto t = kSimEpoch + microseconds(100);
  q.push(t, [&] { order.push_back(0); });  // stashed
  q.push(t, [&] { order.push_back(1); });  // into the wheel
  q.pop().second();                        // pops 0 (stash)
  q.pop().second();  // pops 1; the quantum stays harvested (drained tail)
  const auto t2 = t + microseconds(10);  // same quantum as the cursor
  q.push(t2, [&] { order.push_back(2); });  // stashed (queue empty again)
  q.push(t2, [&] { order.push_back(3); });  // appended to the harvested tail
  // Earlier newcomer: demotes 2 into the tail behind 3 — equal time,
  // older seq, so 2 must still pop before 3.
  q.push(t2 - microseconds(1), [&] { order.push_back(4); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3}));
}

TEST(EventQueue, ClearKeepsArenaAndRewindsSequence) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    q.push(kSimEpoch + milliseconds(i), [&] { ++fired; });
  }
  q.push(kSimEpoch + seconds(100.0), [&] { ++fired; });  // overflow too
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(fired, 0);  // pending closures destroyed, never invoked
  // The cleared queue orders a fresh schedule exactly like a new one.
  std::vector<int> order;
  q.push(kSimEpoch + milliseconds(2), [&] { order.push_back(1); });
  q.push(kSimEpoch + milliseconds(1), [&] { order.push_back(0); });
  q.push(kSimEpoch + milliseconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// -------------------------------------------------------------- simulator

TEST(Simulator, AdvancesClockThroughEvents) {
  Simulator sim;
  TimePoint seen{};
  sim.schedule_after(milliseconds(100), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, kSimEpoch + milliseconds(100));
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(milliseconds(10), [&] { ++fired; });
  sim.schedule_after(milliseconds(50), [&] { ++fired; });
  sim.run_until(kSimEpoch + milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(20));
  sim.run_until(kSimEpoch + milliseconds(100));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  UniqueFunction<void()> recurse;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(milliseconds(1), [&] { chain(); });
  };
  sim.schedule_after(milliseconds(1), [&] { chain(); });
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(5));
}

TEST(Simulator, ActionRunningInPlaceSurvivesArenaGrowth) {
  // An action runs from its arena entry (begin_pop) and may push events
  // while it runs. A fresh simulator's arena holds no chunks, so the pushes
  // below take two new 1,024-entry chunks mid-action: its own entry, and
  // the captures stored inline in it, must stay put.
  struct State {
    Simulator sim;
    int fired = 0;
    std::uint64_t seen = 0;
  } state;
  constexpr int kPushes = 2500;
  constexpr std::uint64_t kMagic = 0x5EEDCAFEF00DBEEFULL;
  // 16 bytes of captures: inline in the UniqueFunction, so in the arena.
  state.sim.schedule_after(milliseconds(1), [s = &state, magic = kMagic] {
    for (int i = 0; i < kPushes; ++i) {
      s->sim.schedule_after(microseconds(i + 1), [s] { ++s->fired; });
    }
    s->seen = magic;
  });
  state.sim.run();
  EXPECT_EQ(state.seen, kMagic);
  EXPECT_EQ(state.fired, kPushes);
  EXPECT_EQ(state.sim.events_processed(), kPushes + 1u);
}

// ---------------------------------------------------------------- network

struct Probe {
  int received = 0;
  TimePoint last_at{};
  std::string last_payload;
};

TEST(Network, DeliversWithLatency) {
  Simulator sim;
  Network<std::string> net(sim, Pcg32{1});
  Probe probe;
  LinkProfile p;
  p.loss = 0.0;
  p.latency_base = milliseconds(10);
  p.latency_jitter = Duration::zero();
  p.upload_capacity_bps = 1e9;
  net.add_node(NodeId{0}, p, [](Delivery<std::string>) {});
  net.add_node(NodeId{1}, p, [&](Delivery<std::string> d) {
    ++probe.received;
    probe.last_at = sim.now();
    probe.last_payload = d.payload;
  });
  net.send(NodeId{0}, NodeId{1}, Channel::kDatagram, 100, "hello");
  sim.run();
  EXPECT_EQ(probe.received, 1);
  EXPECT_EQ(probe.last_payload, "hello");
  // 20 ms propagation (both endpoints) + ~1 us transmission.
  EXPECT_GE(probe.last_at, kSimEpoch + milliseconds(20));
  EXPECT_LE(probe.last_at, kSimEpoch + milliseconds(21));
}

TEST(Network, LossRateMatchesProfile) {
  Simulator sim;
  Network<int> net(sim, Pcg32{2});
  int received = 0;
  LinkProfile lossy;
  lossy.loss = 0.05;  // both endpoints: 1-(0.95)^2 = 9.75% per message
  lossy.upload_capacity_bps = 1e12;
  net.add_node(NodeId{0}, lossy, [](Delivery<int>) {});
  net.add_node(NodeId{1}, lossy, [&](Delivery<int>) { ++received; });
  const int sent = 20000;
  for (int i = 0; i < sent; ++i) {
    net.send(NodeId{0}, NodeId{1}, Channel::kDatagram, 10, i);
  }
  sim.run();
  const double delivered = static_cast<double>(received) / sent;
  EXPECT_NEAR(delivered, 0.95 * 0.95, 0.01);
  EXPECT_EQ(net.stats().datagrams_sent, static_cast<std::uint64_t>(sent));
  EXPECT_EQ(net.stats().datagrams_delivered + net.stats().datagrams_lost,
            static_cast<std::uint64_t>(sent));
}

TEST(Network, ReliableChannelNeverLoses) {
  Simulator sim;
  Network<int> net(sim, Pcg32{3});
  int received = 0;
  LinkProfile lossy;
  lossy.loss = 0.3;
  net.add_node(NodeId{0}, lossy, [](Delivery<int>) {});
  net.add_node(NodeId{1}, lossy, [&](Delivery<int>) { ++received; });
  for (int i = 0; i < 500; ++i) {
    net.send(NodeId{0}, NodeId{1}, Channel::kReliable, 100, i);
  }
  sim.run();
  EXPECT_EQ(received, 500);
}

TEST(Network, UplinkCapacitySerializesTraffic) {
  Simulator sim;
  Network<int> net(sim, Pcg32{4});
  TimePoint last{};
  int received = 0;
  LinkProfile slow;
  slow.loss = 0.0;
  slow.latency_base = Duration::zero();
  slow.latency_jitter = Duration::zero();
  slow.upload_capacity_bps = 8000.0;  // 1000 bytes/s
  slow.max_queue_delay = seconds(100.0);
  net.add_node(NodeId{0}, slow, [](Delivery<int>) {});
  net.add_node(NodeId{1}, slow, [&](Delivery<int>) {
    ++received;
    last = sim.now();
  });
  // Ten 1000-byte messages at 1000 B/s: the last arrives at ~10 s.
  for (int i = 0; i < 10; ++i) {
    net.send(NodeId{0}, NodeId{1}, Channel::kDatagram, 1000, i);
  }
  sim.run();
  EXPECT_EQ(received, 10);
  EXPECT_NEAR(to_seconds(last), 10.0, 0.1);
}

TEST(Network, DatagramsDropWhenQueueExceedsBound) {
  Simulator sim;
  Network<int> net(sim, Pcg32{5});
  int received = 0;
  LinkProfile slow;
  slow.loss = 0.0;
  slow.upload_capacity_bps = 8000.0;  // 1000 B/s
  slow.max_queue_delay = seconds(2.0);
  net.add_node(NodeId{0}, slow, [](Delivery<int>) {});
  net.add_node(NodeId{1}, slow, [&](Delivery<int>) { ++received; });
  // 1 s of backlog per message: messages 4+ exceed the 2 s bound.
  for (int i = 0; i < 10; ++i) {
    net.send(NodeId{0}, NodeId{1}, Channel::kDatagram, 1000, i);
  }
  sim.run();
  EXPECT_LT(received, 10);
  EXPECT_GT(net.stats().datagrams_dropped, 0u);
  EXPECT_EQ(net.stats().datagrams_delivered + net.stats().datagrams_dropped,
            10u);
}

TEST(Network, SmallMessagesBypassTheBulkQueue) {
  Simulator sim;
  Network<int> net(sim, Pcg32{7});
  LinkProfile slow;
  slow.loss = 0.0;
  slow.latency_base = Duration::zero();
  slow.latency_jitter = Duration::zero();
  slow.upload_capacity_bps = 8000.0;  // 1000 B/s
  slow.max_queue_delay = seconds(100.0);
  slow.priority_bytes = 512;
  TimePoint small_arrived{};
  TimePoint big_arrived{};
  net.add_node(NodeId{0}, slow, [](Delivery<int>) {});
  net.add_node(NodeId{1}, slow, [&](Delivery<int> d) {
    if (d.payload == 1) big_arrived = sim.now();
    if (d.payload == 2) small_arrived = sim.now();
  });
  net.send(NodeId{0}, NodeId{1}, Channel::kDatagram, 5000, 1);  // 5 s of wire
  net.send(NodeId{0}, NodeId{1}, Channel::kDatagram, 100, 2);   // control
  sim.run();
  // The control message interleaves instead of waiting for the bulk one.
  EXPECT_LT(to_seconds(small_arrived), 0.5);
  EXPECT_NEAR(to_seconds(big_arrived), 5.0, 0.1);
}

TEST(Network, DetachedNodeIsSilent) {
  Simulator sim;
  Network<int> net(sim, Pcg32{6});
  int received = 0;
  LinkProfile p;
  net.add_node(NodeId{0}, p, [](Delivery<int>) {});
  net.add_node(NodeId{1}, p, [&](Delivery<int>) { ++received; });
  net.detach(NodeId{1});
  net.send(NodeId{0}, NodeId{1}, Channel::kDatagram, 10, 1);
  sim.run();
  EXPECT_EQ(received, 0);
}

// A fan-out must be indistinguishable from a loop of sends: the same link
// model per destination (stats, uplink queue, loss and jitter draws) and
// the same event order. Only the pool footprint differs.
TEST(Network, SendManyMatchesSequentialSends) {
  struct Arrival {
    TimePoint at;
    NodeId to;
    std::string payload;
    bool operator==(const Arrival&) const = default;
  };
  struct Rig {
    Rig() {
      LinkProfile p;
      p.upload_capacity_bps = 80'000.0;  // 10 kB/s: bulk sends queue
      p.max_queue_delay = milliseconds(500);
      LinkProfile lossy = p;
      lossy.loss = 0.3;
      for (std::uint32_t i = 0; i < 7; ++i) {
        net.add_node(NodeId{i}, i == 2 ? lossy : p,
                     [this, i](const Delivery<std::string>& d) {
                       EXPECT_EQ(d.to, NodeId{i});
                       arrivals.push_back({sim.now(), d.to, d.payload});
                     });
      }
      net.detach(NodeId{3});
      net.remove_node(NodeId{4});
    }
    Simulator sim;
    Network<std::string> net{sim, Pcg32{11}};
    std::vector<Arrival> arrivals;
  };
  // 4: removed; 3: detached; 9: never registered; 2: lossy.
  const std::vector<NodeId> to{NodeId{1}, NodeId{2}, NodeId{3},
                               NodeId{4}, NodeId{5}, NodeId{9}, NodeId{6}};
  Rig fanned;
  Rig looped;
  for (int round = 0; round < 60; ++round) {
    const std::size_t bytes = round % 3 == 0 ? 2000 : 100;
    const Channel channel =
        round % 7 == 6 ? Channel::kReliable : Channel::kDatagram;
    const std::string payload = "m" + std::to_string(round);
    fanned.net.send_many(NodeId{0}, to, channel, bytes, payload);
    for (const NodeId dst : to) {
      looped.net.send(NodeId{0}, dst, channel, bytes, payload);
    }
    if (round == 0) {
      EXPECT_EQ(fanned.net.in_flight(), 1u);  // one slot for all copies
      EXPECT_GT(looped.net.in_flight(), 1u);
    }
    fanned.sim.run_until(fanned.sim.now() + milliseconds(40));
    looped.sim.run_until(looped.sim.now() + milliseconds(40));
  }
  fanned.sim.run();
  looped.sim.run();

  EXPECT_EQ(fanned.arrivals, looped.arrivals);
  const auto fields = [](const NetworkStats& s) {
    return std::vector<std::uint64_t>{
        s.datagrams_sent,     s.datagrams_lost,   s.datagrams_dropped,
        s.datagrams_delivered, s.reliable_sent,   s.reliable_delivered,
        s.bytes_sent,         s.bytes_delivered,  s.no_route};
  };
  EXPECT_EQ(fields(fanned.net.stats()), fields(looped.net.stats()));
  // Every branch of the link model was exercised.
  EXPECT_GT(fanned.net.stats().datagrams_lost, 0u);
  EXPECT_GT(fanned.net.stats().datagrams_dropped, 0u);
  EXPECT_GT(fanned.net.stats().no_route, 0u);
  EXPECT_GT(fanned.net.stats().reliable_delivered, 0u);
  EXPECT_EQ(fanned.net.in_flight(), 0u);
  EXPECT_EQ(looped.net.in_flight(), 0u);
}

TEST(Network, MutableHandlersGetTheirOwnCopyOfASharedDelivery) {
  // A handler written against `Delivery&` may move the payload out; the
  // other destinations of the same fan-out must still see it whole.
  Simulator sim;
  Network<std::string> net(sim, Pcg32{12});
  std::vector<std::string> got;
  LinkProfile p;
  p.latency_jitter = Duration::zero();
  for (std::uint32_t i = 0; i < 3; ++i) {
    net.add_node(NodeId{i}, p, [&](Delivery<std::string>& d) {
      got.push_back(std::move(d.payload));
    });
  }
  const std::vector<NodeId> to{NodeId{1}, NodeId{2}};
  net.send_many(NodeId{0}, to, Channel::kReliable, 10, "shared");
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"shared", "shared"}));
  EXPECT_EQ(net.in_flight(), 0u);
}

}  // namespace
}  // namespace lifting::sim
