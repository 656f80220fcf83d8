#ifndef LIFTING_OBS_REGISTRY_HPP
#define LIFTING_OBS_REGISTRY_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

/// Unified metrics registry (DESIGN.md §13): one named home for the
/// counters that used to live scattered across KindWireStats, the agents'
/// audit-channel totals, FaultInjector::Stats and the engines' duplicate
/// counters. Deployments *fold into* a Registry (Experiment::
/// collect_metrics, lifting_node's stat emitter) — the hot-path structs
/// stay as they are; the registry is the reporting surface: self-
/// describing bench JSON rows and the periodic mid-run STAT lines the
/// wire protocol streams.
///
/// Entries live in a deque so references stay stable across registration;
/// iteration is registration order, which keeps every exported listing
/// deterministic.

namespace lifting::obs {

/// Fixed-bucket log2 histogram: bucket i counts observations in
/// [2^(i-1), 2^i) (bucket 0 is [0, 1)). Bounded, allocation-free.
struct Histogram {
  std::array<std::uint64_t, 32> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;

  void observe(double v) noexcept {
    ++count;
    sum += v;
    std::size_t b = 0;
    for (double x = v; x >= 1.0 && b + 1 < buckets.size(); x /= 2.0) ++b;
    ++buckets[b];
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  void reset() noexcept {
    buckets.fill(0);
    count = 0;
    sum = 0.0;
  }
};

class Registry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Histogram histogram;
  };

  /// Monotone event count. Registered on first use; later calls with the
  /// same name return the same (stable) slot.
  [[nodiscard]] std::uint64_t& counter(std::string_view name) {
    return slot(name, Kind::kCounter).counter;
  }
  /// Point-in-time value (timers, rates, sizes).
  [[nodiscard]] double& gauge(std::string_view name) {
    return slot(name, Kind::kGauge).gauge;
  }
  [[nodiscard]] Histogram& histogram(std::string_view name) {
    return slot(name, Kind::kHistogram).histogram;
  }

  /// Sets a counter to an externally folded total (the collect_metrics
  /// pattern re-folds absolute totals rather than accumulating deltas).
  void set_counter(std::string_view name, std::uint64_t value) {
    counter(name) = value;
  }
  void set_gauge(std::string_view name, double value) { gauge(name) = value; }

  [[nodiscard]] const std::deque<Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Zeroes every value; names and registration order survive.
  void reset_values() noexcept {
    for (auto& e : entries_) {
      e.counter = 0;
      e.gauge = 0.0;
      e.histogram.reset();
    }
  }

 private:
  [[nodiscard]] Entry& slot(std::string_view name, Kind kind);

  std::deque<Entry> entries_;
};

/// Scoped wall-clock phase timer: on destruction writes the elapsed
/// seconds into `registry.gauge(name)` and observes it in
/// `registry.histogram(name + "_hist")`. Reporting-side only (benches,
/// tools) — never inside deterministic protocol code.
class ScopedTimer {
 public:
  ScopedTimer(Registry& registry, std::string name)
      : registry_(registry),
        name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    registry_.gauge(name_) = seconds;
    registry_.histogram(name_ + "_hist").observe(seconds);
  }

 private:
  Registry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lifting::obs

#endif  // LIFTING_OBS_REGISTRY_HPP
