#ifndef LIFTING_BENCH_E2E_RECORD_HPP
#define LIFTING_BENCH_E2E_RECORD_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

/// What one repetition of a workload reports, and how a repetition is
/// isolated: each runs in a forked child process, so its peak RSS, CPU
/// time and heap state belong to that repetition alone. The child sends
/// its Record back over a pipe as text.

namespace lifting::e2e {

/// Host steady-clock seconds. The clock is system-wide, so spans recorded
/// in a child line up with the parent's.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds the calling thread has used.
[[nodiscard]] double thread_cpu_s();

/// One timed phase of lifting_bench. `parent` indexes the enclosing span in
/// the same Record (-1: the repetition itself); `lane` is the worker lane
/// (the sweep runs two).
struct Span {
  std::string name;
  int parent = -1;
  int lane = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

struct Record {
  /// Named values; a scalar is a one-element vector.
  std::map<std::string, std::vector<double>> values;
  std::vector<Span> spans;

  void set(const std::string& key, double v) { values[key] = {v}; }
  void add(const std::string& key, double v) { values[key].push_back(v); }
  [[nodiscard]] double get(const std::string& key,
                           double fallback = 0.0) const;
  /// Empty when the key is absent.
  [[nodiscard]] const std::vector<double>& all(const std::string& key) const;

  /// Opens a span now and returns its index.
  int open(std::string name, int parent = -1, int lane = 0);
  void close(int span) { spans[static_cast<std::size_t>(span)].end_s = now_s(); }

  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<Record> parse(const std::string& text);
};

/// Outcome of one isolated repetition.
struct Isolated {
  bool ok = false;  ///< the child exited 0 and its Record parsed
  Record record;
  double wall_s = 0.0;
};

/// Runs `body` in a forked child and waits for it. The child's stdout is
/// redirected to stderr, so nothing it prints can displace the benchmark's
/// result line. Must be called while the caller has no other threads.
[[nodiscard]] Isolated run_isolated(const std::function<Record()>& body);

// ---- sample statistics

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// The highest of p90/p99/p99.9 with at least ten samples beyond it.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};
[[nodiscard]] std::optional<Tail> tail(const std::vector<double>& v);
/// (Q3 − Q1) / median with Python's statistics.quantiles(n=4) exclusive
/// method — the spread rule the benchmark is judged by. 0 below 2 samples.
[[nodiscard]] double iqr_share(std::vector<double> v);

}  // namespace lifting::e2e

#endif  // LIFTING_BENCH_E2E_RECORD_HPP
