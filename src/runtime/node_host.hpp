#ifndef LIFTING_RUNTIME_NODE_HOST_HPP
#define LIFTING_RUNTIME_NODE_HOST_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "faults/injector.hpp"
#include "gossip/engine.hpp"
#include "gossip/mailer.hpp"
#include "gossip/stream_source.hpp"
#include "lifting/agent.hpp"
#include "lifting/managers.hpp"
#include "membership/directory.hpp"
#include "net/udp_transport.hpp"
#include "obs/trace.hpp"
#include "runtime/node_stack.hpp"
#include "runtime/scenario.hpp"
#include "sim/simulator.hpp"

/// One node over real UDP datagrams: what a lifting_node daemon process
/// runs (and what in-process wire tests run on threads). Directory +
/// ManagerAssignment + Mailer-over-UdpTransport + the simulator's own
/// NodeStack (+ StreamSource on the source node), built from the same
/// ScenarioConfig.
///
/// Determinism across processes: the manager assignment is a pure function
/// of (n, M, seed), freerider roles come from Experiment's role stream
/// (Experiment::derive_freerider_ids), and NodeStack keys each node's rng
/// streams by (node, epoch) — so N processes given identical configs agree
/// on all shared state while exchanging nothing but the port roster.
///
/// Time: protocol timers still run on the sim::Simulator event queue, but
/// run() slaves the virtual clock to std::chrono::steady_clock — due
/// timers fire at their scheduled virtual timestamps. Between deadlines the
/// loop sleeps in UdpTransport::poll_wait, and only four things wake it: a
/// due timer, a readable datagram, stream end and drain end. An idle daemon
/// therefore costs no CPU, and loop_wakeups (see collect_metrics) stays
/// within a small multiple of timers fired plus datagrams received. A
/// drained datagram is handled at the current wall-clock time, after the
/// timers due by then. Only this outermost loop differs from the simulator.

namespace lifting::obs {
class Registry;
}  // namespace lifting::obs

namespace lifting::runtime {

class NodeHost {
 public:
  /// Builds the stack for node `self` of `config` and binds its UDP
  /// endpoint (an ephemeral loopback port; see port()). Requires
  /// wire_supported(config).
  NodeHost(const ScenarioConfig& config, NodeId self);

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// The UDP port this node's endpoint bound.
  [[nodiscard]] std::uint16_t port() const;

  /// Installs the deployment's port roster: `ports[i]` is node i's port
  /// (the own entry is ignored). Must be called before run().
  void set_roster(const std::vector<std::uint16_t>& ports);

  /// Runs the node for the scenario duration against the wall clock, then
  /// winds down and drains in-flight traffic briefly. Blocking; a process
  /// calls it once (in-process tests give each host its own thread).
  void run();

  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] bool is_source() const noexcept { return source_ != nullptr; }
  [[nodiscard]] bool is_freerider() const noexcept { return freerider_; }
  [[nodiscard]] const gossip::EngineStats& engine_stats() const noexcept {
    return stack_.engine().stats();
  }
  /// Chunks emitted by the stream source (0 on non-source nodes).
  [[nodiscard]] std::uint64_t chunks_emitted() const noexcept {
    return source_ ? source_->emitted().size() : 0;
  }
  [[nodiscard]] const net::UdpTransport& transport() const noexcept {
    return udp_;
  }
  /// Local fault-injection outcomes (this node's sends only). The same
  /// FaultPlan drives every process; each derives its own per-sender rng
  /// stream, so no coordination is needed.
  [[nodiscard]] const faults::FaultInjector::Stats& fault_stats() const {
    return injector_.stats();
  }

  /// Arms the flight recorder over this process's stack — engine, agent
  /// and fault injector (DESIGN.md §13). Record timestamps are virtual
  /// time, which run() slaves to the wall clock, so the per-process dumps
  /// of one deployment merge on a shared timeline (tools/lifting_trace).
  /// Call before run().
  void enable_trace(std::size_t capacity);
  /// The armed ring, or null when tracing is disarmed.
  [[nodiscard]] const obs::TraceRing* trace_ring() const noexcept {
    return recorder_ == nullptr ? nullptr : &recorder_->ring();
  }

  /// Installs a periodic reporting hook that run() schedules on the event
  /// queue (first firing one `interval` after start, last at or before
  /// wind-down). The wire deployment pins no golden event order, so the
  /// extra timer is safe; lifting_node uses it to stream STAT lines
  /// mid-run. Call before run().
  void set_stat_hook(Duration interval, std::function<void()> hook);

  /// Folds every scattered counter family — engine, transport, faults,
  /// audit channel, drive loop (timers_fired, loop_wakeups), trace ring —
  /// into `out` as absolute totals (idempotent re-fold; the wire
  /// counterpart of Experiment::collect_metrics).
  void collect_metrics(obs::Registry& out) const;

 private:
  void stat_tick(TimePoint end);
  /// The virtual time the wall clock reads (whole µs since run() began).
  [[nodiscard]] TimePoint wall_now() const;
  /// Fires every timer due by the wall clock, capped at horizon_.
  void advance_clock();

  ScenarioConfig config_;
  NodeId self_;
  bool freerider_ = false;

  sim::Simulator sim_;
  net::UdpTransport udp_;
  /// Fault injector between Mailer and sockets — the SAME seam the
  /// simulator injects at, so one FaultPlan means one fault model on both
  /// backends. Held sends ride the sim event queue, which run() slaves to
  /// the wall clock, so delay spikes happen in real time.
  faults::FaultInjector injector_;
  gossip::Mailer mailer_;
  membership::Directory directory_;
  std::shared_ptr<lifting::ManagerAssignment> assignment_;
  NodeStack stack_;
  std::unique_ptr<gossip::StreamSource> source_;
  std::unique_ptr<obs::Recorder> recorder_;
  Duration stat_interval_ = Duration::zero();
  std::function<void()> stat_hook_;
  bool roster_set_ = false;
  /// run()'s wall-clock origin and its current clock cap: stream end until
  /// wind-down, drain end after.
  std::chrono::steady_clock::time_point wall0_;
  TimePoint horizon_ = kSimEpoch;
  std::uint64_t loop_wakeups_ = 0;
};

}  // namespace lifting::runtime

#endif  // LIFTING_RUNTIME_NODE_HOST_HPP
