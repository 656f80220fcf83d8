#include "runtime/node_host.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "obs/registry.hpp"
#include "runtime/experiment.hpp"
#include "runtime/wire_scenario.hpp"

namespace lifting::runtime {

namespace {
/// After the stream ends, keep polling this long so in-flight datagrams
/// (tail serves, acks of the final period) land before stats are read.
constexpr Duration kDrainWindow = milliseconds(300);
}  // namespace

NodeHost::NodeHost(const ScenarioConfig& config, NodeId self)
    : config_(config),
      self_(self),
      injector_(udp_, sim_, config.seed),
      mailer_(injector_),
      directory_(config.nodes) {
  config_.validate();
  std::string why;
  require(wire_supported(config_, &why), "wire deployment unsupported: " + why);
  require(self_.value() < config_.nodes, "self id outside the population");
  injector_.set_plan(config_.faults);
  mailer_.set_datagram_audit_pricing(
      config_.lifting_enabled &&
      config_.lifting.audit_channel == LiftingParams::AuditChannel::kReliableUdp);

  const bool bound =
      udp_.add_endpoint(self_, [this](NodeId from, gossip::Message msg) {
        // A datagram is handled at the wall-clock time it is drained, not
        // at the time the loop went to sleep: timers due by now fire first.
        advance_clock();
        stack_.handle(from, msg);
      });
  require(bound, "failed to bind a loopback UDP endpoint");

  // Roles are derived, not communicated: every process draws the same
  // freerider set from the same role stream.
  const auto freeriders = Experiment::derive_freerider_ids(
      config_.seed, config_.nodes, config_.freerider_fraction);
  freerider_ = std::binary_search(freeriders.begin(), freeriders.end(), self_);
  const auto behavior =
      freerider_ ? config_.freerider_behavior : gossip::BehaviorSpec::honest();

  if (config_.lifting_enabled) {
    assignment_ = std::make_shared<lifting::ManagerAssignment>(
        config_.nodes, config_.lifting.managers, config_.seed);
  }
  stack_ = NodeStack(sim_, mailer_, directory_, config_, self_, behavior,
                     assignment_);
  if (self_ == NodeId{0}) {
    source_ = std::make_unique<gossip::StreamSource>(sim_, stack_.engine(),
                                                     config_.stream);
  }
}

std::uint16_t NodeHost::port() const { return udp_.port_of(self_); }

void NodeHost::enable_trace(std::size_t capacity) {
  require(recorder_ == nullptr, "flight recorder already armed");
  recorder_ = std::make_unique<obs::Recorder>(sim_, capacity);
  injector_.set_trace(recorder_.get());
  stack_.set_trace(recorder_.get());
}

void NodeHost::set_stat_hook(Duration interval, std::function<void()> hook) {
  require(interval > Duration::zero(), "stat interval must be positive");
  stat_interval_ = interval;
  stat_hook_ = std::move(hook);
}

void NodeHost::stat_tick(TimePoint end) {
  stat_hook_();
  if (sim_.now() + stat_interval_ <= end) {
    sim_.schedule_after(stat_interval_, [this, end] { stat_tick(end); });
  }
}

void NodeHost::collect_metrics(obs::Registry& out) const {
  for (const auto& [name, field] : gossip::EngineStats::kFields) {
    out.set_counter(name, engine_stats().*field);
  }
  out.set_counter("chunks_emitted", chunks_emitted());
  out.set_counter("messages_sent", udp_.messages_sent());
  out.set_counter("messages_received", udp_.messages_received());
  out.set_counter("timers_fired", sim_.events_processed());
  out.set_counter("loop_wakeups", loop_wakeups_);
  out.set_counter("decode_failures", udp_.decode_failures());
  out.set_counter("socket_errors", udp_.socket_errors());
  out.set_counter("send_failures", udp_.send_failures());
  const auto& faults = injector_.stats();
  out.set_counter("faults_dropped", faults.dropped());
  out.set_counter("faults_duplicated", faults.duplicated);
  out.set_counter("faults_delayed", faults.delayed + faults.reordered);
  // Audit-channel delivery health (reliable-UDP mode; zeros otherwise).
  const auto audit = stack_.agent() != nullptr
                         ? stack_.agent()->audit_channel_totals()
                         : lifting::Agent::AuditChannelStats{};
  out.set_counter("audit_sends", audit.sends);
  out.set_counter("audit_retries", audit.retries);
  out.set_counter("audit_give_ups", audit.give_ups);
  out.set_counter("audit_acks", audit.acks_received);
  out.set_counter("audit_dups_suppressed", audit.dups_suppressed);
  if (recorder_ != nullptr) {
    out.set_counter("trace_recorded", recorder_->ring().total_recorded());
    out.set_counter("trace_dropped", recorder_->ring().dropped());
  }
}

void NodeHost::set_roster(const std::vector<std::uint16_t>& ports) {
  require(ports.size() == config_.nodes, "roster size != population");
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    const NodeId id{i};
    if (id == self_) continue;
    require(ports[i] != 0, "roster carries a zero port");
    require(udp_.add_route(id, ports[i]), "duplicate roster entry");
  }
  roster_set_ = true;
}

TimePoint NodeHost::wall_now() const {
  return kSimEpoch + std::chrono::duration_cast<Duration>(
                         std::chrono::steady_clock::now() - wall0_);
}

void NodeHost::advance_clock() {
  sim_.run_until(std::min(wall_now(), horizon_));
}

void NodeHost::run() {
  require(roster_set_, "set_roster before run()");

  // Desynchronized start like a simulated joiner (the joiner stream is
  // unused in the static wire deployment, so it collides with nothing).
  stack_.start(NodeStack::join_offset(config_, self_.value(),
                                      directory_.epoch_of(self_)));
  if (source_) source_->start();

  const TimePoint end = kSimEpoch + config_.duration;
  if (stat_hook_) {
    sim_.schedule_after(stat_interval_, [this, end] { stat_tick(end); });
  }
  const TimePoint drain_end = end + kDrainWindow;
  wall0_ = std::chrono::steady_clock::now();
  horizon_ = end;

  // The drive loop: advance the virtual clock to the wall clock (firing
  // every due protocol timer at its scheduled virtual timestamp), then
  // sleep until the earliest of the next timer, the current horizon (stream
  // end, then drain end) or a datagram. Nothing else wakes the loop.
  for (;;) {
    advance_clock();
    if (horizon_ == end && sim_.now() >= end) {
      // Wind down in Experiment::wind_down order; the stopped stacks keep
      // answering incoming traffic while the drain window runs.
      horizon_ = drain_end;
      if (source_) source_->stop();
      stack_.stop();
    }
    if (sim_.now() >= drain_end) break;
    TimePoint wake = horizon_;
    if (sim_.has_pending()) wake = std::min(wake, sim_.next_event_time());
    // wall_now() rounds down to a whole µs, so the wait rounds up: the
    // loop never wakes before `wake` is due.
    ++loop_wakeups_;
    udp_.poll_wait(wake - wall_now());
  }
}

}  // namespace lifting::runtime
