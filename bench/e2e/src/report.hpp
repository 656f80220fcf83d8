#ifndef LIFTING_BENCH_E2E_REPORT_HPP
#define LIFTING_BENCH_E2E_REPORT_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "record.hpp"
#include "workloads.hpp"

/// Metric catalogue, aggregation of repetitions into metrics, and the
/// outputs: the printed table, the one-line JSON result, the --json file
/// (which doubles as a Chrome trace of the benchmark's spans) and --compare.

namespace lifting::e2e {

/// One metric of BENCHMARK.json, the one catalogue: lifting_bench is
/// compiled with its text (CMakeLists.txt), so what it prints and what
/// --compare applies is what that file says.
struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_better = false;
  /// Share of the baseline median by which the metric may worsen before a
  /// change counts as a regression (end-to-end metrics only).
  double bound = 0.0;
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

struct MetricValue {
  double value = 0.0;          ///< median of the pooled samples
  std::size_t n = 0;           ///< samples pooled over the repetitions
  std::optional<Tail> tail;    ///< of the pooled samples
  std::vector<double> per_rep; ///< the median over each repetition alone
};

struct WorkloadResult {
  const Workload* workload = nullptr;
  std::vector<Isolated> reps;    ///< untraced repetitions, in run order
  std::vector<Isolated> setups;  ///< set-up-only children (not sweep-mc)
  std::optional<Isolated> traced;
  Record probes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< gate messages
  std::vector<Span> spans;            ///< workload → rep → phase
  std::map<std::string, MetricValue> end_to_end;
  /// Fixed-seed outcomes --compare holds to absolute tolerances.
  std::map<std::string, double> outcomes;
  std::map<std::string, double> per_layer;
};

/// Fills end_to_end and outcomes (and per_layer when a traced repetition
/// ran). A catalogue metric the workload did not produce is a failed op.
void summarize(WorkloadResult& result);

struct Header {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
};

/// Header line (seed, host, build) and a table of every metric with its
/// unit, to stdout; per-layer metrics too when traced.
void print_table(const Header& header,
                 const std::vector<WorkloadResult>& results);
/// The result line: {"correct", "attempted", "failed", "metrics"}. With one
/// workload metric keys are bare names, else "<workload>/<name>".
[[nodiscard]] std::string result_line(
    const std::vector<WorkloadResult>& results, bool trace);
/// Everything: header, per-workload metrics with samples, outcomes,
/// digests, gate failures, and the spans as Chrome trace events.
bool write_json(const std::string& path, const Header& header,
                const std::vector<WorkloadResult>& results);
/// Prints the verdicts of B against baseline A; returns 1 when a metric or
/// outcome regressed, B failed a larger share of ops, a fixed-seed digest
/// differs, or either file is unreadable, else 0.
int compare(const std::string& path_a, const std::string& path_b);

}  // namespace lifting::e2e

#endif  // LIFTING_BENCH_E2E_REPORT_HPP
