/// Simulation-core scaling bench: the stream-health scenario (Fig. 1's
/// deployment shape — CBR stream, full LiFTinG verification stack, lossy
/// heterogeneous links) run at increasing population sizes.
///
/// The paper evaluates at PlanetLab scale (300 nodes); related gossip
/// systems evaluate at thousands to tens of thousands of peers. This bench
/// reports the simulator's raw throughput — events/sec and wall-clock per
/// simulated second — so substrate regressions show up as numbers, not
/// vibes, plus the memory columns the million-node rows are budgeted by:
/// heap high-water bytes per node (counting operator new, see
/// bench/alloc_tally.hpp) and process peak RSS. The set-up layer gets its
/// own two columns: the heap high water of the build phase alone and the
/// minor page faults it took (what a node costs before any event runs).
/// Larger populations run a shorter simulated horizon to keep the bench's
/// wall-clock budget flat-ish across rows.
///
/// Rows above kDietNodes run the memory-diet configuration: streamed
/// health (Experiment::enable_streamed_health — delivery logs fold into
/// O(nodes) counters instead of retaining a stamp per chunk) and a
/// shortened lifting.history_retention (the received-proposal ring keeps
/// the confirm window, not the full 25 s audit window). They do not audit,
/// so their nodes keep no audit trail. Rows at or below the threshold keep
/// the full window and audit as paper-300 does (p = 0.3 per period after
/// 20 periods), so they hold every per-node log at full retention; the
/// streamed health value itself is bit-identical either way
/// (tests/test_streamed_health.cpp).
///
/// Usage: bench_scale_nodes [nodes...] [--json PATH]
///                          [--budget-bytes-per-node N]
///   default populations: 300 1000 5000 20000
///   --json writes the rows as JSON (the committed BENCH_memory.json)
///   --budget-bytes-per-node asserts every row's heap high-water per node
///   stays at or under N — exit 1 on a regression (the CI memory gate)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

#include "alloc_tally.hpp"
#include "common/build_info.hpp"
#include "common/ring_log.hpp"
#include "common/table.hpp"
#include "obs/registry.hpp"
#include "runtime/experiment.hpp"

namespace {

using namespace lifting;

/// Populations above this run the memory-diet configuration (streamed
/// health + shortened history retention, no audits). The full-window rows
/// (<= 20k) keep the retained configuration and run audits.
constexpr std::uint32_t kDietNodes = 20000;

/// Fig. 1's deployment shape at population n: the 674 kbps stream, f = 7,
/// Tg = 500 ms, PlanetLab-like lossy links, a tail of weak nodes, and the
/// full verification machinery running (10% deterred freeriders), with
/// local-history audits on the full-window rows.
runtime::ScenarioConfig stream_health_config(std::uint32_t n,
                                             double sim_seconds) {
  auto cfg = runtime::ScenarioConfig::planetlab();
  cfg.nodes = n;
  cfg.duration = seconds(sim_seconds);
  cfg.stream.duration = seconds(sim_seconds * 0.9);
  cfg.weak_fraction = 0.2;
  cfg.freerider_fraction = 0.10;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.035);
  if (n > kDietNodes) {
    // Proposal/receipt rings keep 6 periods (3 s at Tg = 500 ms) instead
    // of the 25 s audit window: enough for every confirm (window: 3
    // periods) and the cross-check lag, and the dominant per-node saving
    // at million scale.
    cfg.lifting.history_retention = seconds(3.0);
  } else {
    // The full-window rows audit (paper-300's setting), so their nodes
    // hold the audit trail at the 25 s window the CI 1k budget gates.
    cfg.lifting.audit_probability = 0.3;
    cfg.lifting.audit_warmup_periods = 20;
  }
  return cfg;
}

/// Simulated horizon per population: enough periods for the gossip mesh to
/// reach steady state, shrinking at the top end to bound bench wall-clock.
double horizon_seconds(std::uint32_t n) {
  if (n <= 1000) return 30.0;
  if (n <= 5000) return 15.0;
  if (n <= 50000) return 8.0;
  return 5.0;
}

struct Row {
  std::uint32_t nodes = 0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;
  double wall_seconds = 0.0;
  double health = 0.0;  // fraction of honest nodes clear at 5 s lag
  bool streamed = false;
  std::uint64_t heap_high_water = 0;  // peak live heap growth of the row
  /// The build phase alone (Experiment construction): its heap high water
  /// and the minor page faults the process took meanwhile.
  std::uint64_t build_heap_high_water = 0;
  std::uint64_t build_minor_faults = 0;
  std::uint64_t peak_rss_kb = 0;      // process-global, monotone
  /// Recycled memory no structure holds at row end: the block pool's idle
  /// blocks. Memory that growth stranded shows up here.
  std::uint64_t pool_idle_bytes = 0;
  /// Per-row unified metrics (obs::Registry, DESIGN.md §13): the folded
  /// deployment counters plus the scoped phase timers (phase.build /
  /// phase.run / phase.health gauges).
  obs::Registry metrics;
  [[nodiscard]] double bytes_per_node() const {
    return static_cast<double>(heap_high_water) / nodes;
  }
  [[nodiscard]] double build_bytes_per_node() const {
    return static_cast<double>(build_heap_high_water) / nodes;
  }
};

/// Minor page faults this process has taken so far.
std::uint64_t minor_faults() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

Row run(std::uint32_t n) {
  Row row;
  row.nodes = n;
  row.sim_seconds = horizon_seconds(n);
  row.streamed = n > kDietNodes;
  // Both ends of the judgeable window [warmup, horizon - lag] must sit
  // inside the shortest (5 s) horizon.
  gossip::PlaybackConfig playback;
  playback.clear_threshold = 0.95;
  playback.warmup = seconds(2.0);
  const std::vector<double> lags{5.0 - (row.sim_seconds < 8.0 ? 2.5 : 0.0)};

  bench::reset_live_high_water();
  const auto mem_start = bench::AllocSnapshot::now();
  const std::uint64_t faults_start = minor_faults();
  std::optional<runtime::Experiment> ex;
  {
    obs::ScopedTimer t(row.metrics, "phase.build");
    ex.emplace(stream_health_config(n, row.sim_seconds));
    if (row.streamed) {
      ex->enable_streamed_health(lags, /*honest_only=*/true, playback,
                                 /*fold_interval=*/seconds(1.0));
    }
  }
  row.build_minor_faults = minor_faults() - faults_start;
  row.build_heap_high_water =
      bench::AllocSnapshot::now().high_water_since(mem_start);
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::ScopedTimer t(row.metrics, "phase.run");
    ex->run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  row.events = ex->simulator().events_processed();
  row.datagrams = ex->network_stats().datagrams_sent;
  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  {
    obs::ScopedTimer t(row.metrics, "phase.health");
    const auto curve = row.streamed
                           ? ex->streamed_health_curve()
                           : ex->health_curve(lags, /*honest_only=*/true,
                                              playback);
    row.health = curve.empty() ? 0.0 : curve.front().fraction_clear;
  }
  // Fold the deployment's full counter set into the row — the JSON rows
  // are self-describing without one accessor per counter family.
  ex->collect_metrics(row.metrics);
  // Idle blocks of the page class (pages and other 512 B blocks) in this
  // thread's pool: a property of the process, not of the run, so it stays
  // out of collect_metrics (whose counters must match between a reset
  // Experiment and a fresh one).
  row.metrics.set_counter("mem.pages.idle",
                          detail::BlockPool::idle_blocks(kPageBytes));
  // Peak live heap this row added (construction + run + health read), per
  // node — the budgeted number. RSS is sampled after, for the OS view.
  row.heap_high_water = bench::AllocSnapshot::now().high_water_since(mem_start);
  row.peak_rss_kb = bench::peak_rss_kb();
  row.pool_idle_bytes = detail::BlockPool::idle_bytes();
  return row;
}

void write_json(const char* path, const std::vector<Row>& rows,
                std::uint64_t budget) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale_nodes: cannot write %s\n", path);
    return;
  }
  // schema_version 2: rows carry the folded obs::Registry counters
  // ("metrics") and the scoped phase timers ("phase_seconds").
  // schema_version 3: rows carry "pool_idle_bytes".
  // schema_version 4: rows carry the build phase's "build_minor_faults" and
  // "build_bytes_per_node" (its heap high water per node).
  std::fprintf(f,
               "{\n  \"bench\": \"bench_scale_nodes\",\n"
               "  \"schema_version\": 4,\n"
               "  \"build\": \"%s\",\n  \"sanitizer\": \"%s\",\n"
               "  \"budget_bytes_per_node\": %llu,\n  \"rows\": [\n",
               build_type(), sanitizer_tag(), (unsigned long long)budget);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"nodes\": %u, \"sim_seconds\": %.1f, \"events\": %llu, "
        "\"wall_seconds\": %.3f, \"events_per_second\": %.0f, "
        "\"health\": %.3f, \"streamed\": %s, "
        "\"heap_high_water_bytes\": %llu, \"bytes_per_node\": %.0f, "
        "\"peak_rss_kb\": %llu, \"pool_idle_bytes\": %llu,\n"
        "     \"build_minor_faults\": %llu, \"build_bytes_per_node\": %.0f, "
        "\"phase_seconds\": {",
        r.nodes, r.sim_seconds, (unsigned long long)r.events, r.wall_seconds,
        static_cast<double>(r.events) / r.wall_seconds, r.health,
        r.streamed ? "true" : "false", (unsigned long long)r.heap_high_water,
        r.bytes_per_node(), (unsigned long long)r.peak_rss_kb,
        (unsigned long long)r.pool_idle_bytes,
        (unsigned long long)r.build_minor_faults, r.build_bytes_per_node());
    bool first = true;
    for (const auto& e : r.metrics.entries()) {
      if (e.kind != obs::Registry::Kind::kGauge) continue;
      if (e.name.rfind("phase.", 0) != 0) continue;
      std::fprintf(f, "%s\"%s\": %.3f", first ? "" : ", ",
                   e.name.c_str() + 6, e.gauge);
      first = false;
    }
    std::fprintf(f, "},\n     \"metrics\": {");
    first = true;
    for (const auto& e : r.metrics.entries()) {
      if (e.kind != obs::Registry::Kind::kCounter) continue;
      std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ", e.name.c_str(),
                   (unsigned long long)e.counter);
      first = false;
    }
    std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> populations;
  const char* json_path = nullptr;
  std::uint64_t budget = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--budget-bytes-per-node") == 0 && i + 1 < argc) {
      budget = std::strtoull(argv[++i], nullptr, 10);
      continue;
    }
    char* end = nullptr;
    const unsigned long v = std::strtoul(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0' || v < 3 || v > 10'000'000) {
      std::fprintf(stderr,
                   "bench_scale_nodes: '%s' is not a valid population "
                   "(expected an integer >= 3)\n",
                   argv[i]);
      return 2;
    }
    populations.push_back(static_cast<std::uint32_t>(v));
  }
  if (populations.empty()) populations = {300, 1000, 5000, 20000};

  std::printf("=== simulation-core scaling: stream-health scenario ===\n");
  // Self-describing header: saved bench logs must say what was measured.
  // Rows run serially on purpose (one sim per row, per-row wall timing);
  // hardware_threads records the machine the log came from.
  std::printf("build=%s sanitizer=%s threads=1 (serial rows) "
              "hardware_threads=%u\n",
              lifting::build_type(), lifting::sanitizer_tag(),
              std::thread::hardware_concurrency());
  std::printf(
      "674 kbps stream, f=7, Tg=500 ms, LiFTinG on, 10%% deterred "
      "freeriders, 20%% weak links\n"
      "rows <= %u nodes: audits p=0.3 after 20 periods, full 25 s history\n"
      "rows > %u nodes: memory diet on (streamed health, 3 s history "
      "retention, no audits), health lag 2.5 s\n\n",
      kDietNodes,
      kDietNodes);

  lifting::TextTable table({"nodes", "sim s", "events", "wall s", "events/s",
                            "wall s per sim s", "health", "bytes/node",
                            "peak RSS MB"});
  std::vector<Row> rows;
  int failures = 0;
  for (const auto n : populations) {
    Row row = run(n);
    std::fprintf(stderr,
                 "[scale] n=%u: %llu events in %.2fs (%.0f ev/s, "
                 "%.0f B/node, rss %llu MB, pool idle %llu KB; build %.1f ms, "
                 "%llu minor faults, %.0f B/node)\n",
                 row.nodes, (unsigned long long)row.events, row.wall_seconds,
                 static_cast<double>(row.events) / row.wall_seconds,
                 row.bytes_per_node(), (unsigned long long)(row.peak_rss_kb / 1024),
                 (unsigned long long)(row.pool_idle_bytes / 1024),
                 row.metrics.gauge("phase.build") * 1e3,
                 (unsigned long long)row.build_minor_faults,
                 row.build_bytes_per_node());
    table.add_row({lifting::TextTable::num(row.nodes, 0),
                   lifting::TextTable::num(row.sim_seconds, 0),
                   lifting::TextTable::num(static_cast<double>(row.events), 0),
                   lifting::TextTable::num(row.wall_seconds, 2),
                   lifting::TextTable::num(static_cast<double>(row.events) /
                                               row.wall_seconds,
                                           0),
                   lifting::TextTable::num(row.wall_seconds / row.sim_seconds,
                                           3),
                   lifting::TextTable::num(row.health, 3),
                   lifting::TextTable::num(row.bytes_per_node(), 0),
                   lifting::TextTable::num(
                       static_cast<double>(row.peak_rss_kb) / 1024.0, 0)});
    if (budget != 0 && row.bytes_per_node() > static_cast<double>(budget)) {
      std::fprintf(stderr,
                   "bench_scale_nodes: n=%u uses %.0f heap bytes/node, over "
                   "the %llu budget\n",
                   row.nodes, row.bytes_per_node(), (unsigned long long)budget);
      ++failures;
    }
    rows.push_back(row);
    std::fflush(stdout);
  }
  table.print();
  if (budget != 0) {
    std::printf("\nbytes/node budget: %llu — %s\n", (unsigned long long)budget,
                failures == 0 ? "all rows within budget" : "EXCEEDED");
  }
  if (json_path != nullptr) write_json(json_path, rows, budget);
  return failures == 0 ? 0 : 1;
}
