#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

// The counting operator new (heap high water, allocation calls). Included
// in exactly this translation unit of lifting_bench.
#include "alloc_tally.hpp"
#include "gossip/message.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"

namespace lifting::e2e {

namespace {

using runtime::Experiment;
using runtime::RunDigest;
using runtime::ScenarioConfig;

// Workload sizes: a default run of each takes about the 20 s --seconds
// budget on a 4-core host (README.md).
constexpr std::uint32_t kSweepCases = 400;
constexpr std::uint32_t kSmokeSweepCases = 40;
constexpr unsigned kSweepLanes = 2;
constexpr std::uint32_t kWireNodes = 16;
/// Two deployments of 7 s + the tail fit a 20 s budget.
constexpr double kWireStreamS = 7.0;
constexpr double kSmokeWireStreamS = 3.0;
/// lifting_loopback runs the stream plus a 2 s dissemination tail.
constexpr double kWireTailS = 2.0;

const std::vector<Workload> kWorkloads = {
    {"paper-300", Kind::kPaper},
    {"scale-5k", Kind::kScale},
    {"sweep-mc", Kind::kSweep},
    {"wire-16", Kind::kWire},
};

[[nodiscard]] double to_s(Duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---- fixed-seed digests

/// 52-bit FNV-1a over every RunDigest field: exact in a double, so a
/// per-case digest survives the Record's text round trip.
[[nodiscard]] double digest_hash(const RunDigest& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::uint64_t v :
       {d.events, d.datagrams_sent, d.datagrams_lost, d.datagrams_dropped,
        d.datagrams_delivered, d.bytes_sent, d.bytes_delivered,
        d.blame_emissions, d.joins, d.departures, d.faults_dropped,
        d.faults_duplicated, d.faults_delayed, d.audit_retries,
        d.audit_give_ups, d.audit_dups_suppressed,
        static_cast<std::uint64_t>(d.honest_scored),
        static_cast<std::uint64_t>(d.freeriders_scored),
        std::bit_cast<std::uint64_t>(d.honest_score_sum),
        std::bit_cast<std::uint64_t>(d.freerider_score_sum)}) {
    mix(v);
  }
  return static_cast<double>(h & ((1ULL << 52) - 1));
}

void put_digest(const RunDigest& d, Record& r) {
  r.set("digest.hash", digest_hash(d));
  r.set("digest.events", static_cast<double>(d.events));
  r.set("digest.datagrams_sent", static_cast<double>(d.datagrams_sent));
  r.set("digest.bytes_sent", static_cast<double>(d.bytes_sent));
  r.set("digest.blame_emissions", static_cast<double>(d.blame_emissions));
  r.set("digest.honest_score_sum", d.honest_score_sum);
  r.set("digest.freerider_score_sum", d.freerider_score_sum);
}

// ---- flight-recorder tallies

/// Per-kind record counts plus a 0.1 ms serve-lag histogram (0–60 s), so
/// millions of lag samples cost a fixed 4.8 MB.
struct TraceTally {
  static constexpr double kBucketMs = 0.1;
  static constexpr std::size_t kBuckets = 600'000;
  std::array<std::uint64_t, obs::kEventKindCount> kinds{};
  std::vector<std::uint64_t> lag_buckets = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t lags = 0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;

  /// Counts `rec`; a first (non-duplicate) serve receipt also yields a lag
  /// sample against its chunk's due emission time.
  void add(const obs::TraceRecord& rec, std::int64_t due_us) {
    ++kinds[static_cast<std::size_t>(rec.kind)];
    if (rec.kind != obs::EventKind::kServeReceived || rec.detail != 0) return;
    const double ms = static_cast<double>(rec.at_us - due_us) / 1000.0;
    const auto b = static_cast<std::size_t>(
        std::clamp(ms / kBucketMs, 0.0, static_cast<double>(kBuckets - 1)));
    ++lag_buckets[b];
    ++lags;
  }
  void merge(const TraceTally& o) {
    for (std::size_t k = 0; k < kinds.size(); ++k) kinds[k] += o.kinds[k];
    for (std::size_t b = 0; b < kBuckets; ++b) lag_buckets[b] += o.lag_buckets[b];
    lags += o.lags;
    recorded += o.recorded;
    dropped += o.dropped;
  }
  [[nodiscard]] double lag_quantile(double q) const {
    if (lags == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(lags - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += lag_buckets[b];
      if (seen > rank) return (static_cast<double>(b) + 0.5) * kBucketMs;
    }
    return static_cast<double>(kBuckets) * kBucketMs;
  }
  void write(Record& r) const {
    r.set("trace.recorded", static_cast<double>(recorded));
    r.set("trace.dropped", static_cast<double>(dropped));
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      r.set(std::string("trace.kind.") +
                obs::kind_name(static_cast<obs::EventKind>(k)),
            static_cast<double>(kinds[k]));
    }
    r.set("serve_lag_n", static_cast<double>(lags));
    r.set("serve_lag_ms_p50", lag_quantile(0.50));
    r.set("serve_lag_ms_p99", lag_quantile(0.99));
  }
};

void tally_ring(const obs::TraceRing& ring,
                const std::vector<gossip::ChunkMeta>& emitted,
                TraceTally& tally) {
  tally.recorded += ring.total_recorded();
  tally.dropped += ring.dropped();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto& rec = ring[i];
    const std::int64_t due =
        rec.evidence < emitted.size()
            ? emitted[rec.evidence].emitted_at.time_since_epoch().count()
            : rec.at_us;
    tally.add(rec, due);
  }
}

void put_registry(const Experiment& ex, Record& r) {
  obs::Registry reg;
  ex.collect_metrics(reg);
  for (const auto& e : reg.entries()) {
    if (e.kind == obs::Registry::Kind::kCounter) {
      r.set("reg." + e.name, static_cast<double>(e.counter));
    }
  }
}

/// Lowest stream share delivered to an honest non-source node that was
/// present for the whole run (joiners, leavers and rejoiners excluded).
[[nodiscard]] double delivery_min(Experiment& ex) {
  const auto emitted = static_cast<double>(ex.emitted_chunks().size());
  double lowest = 1.0;
  for (std::uint32_t i = 1; i < ex.config().nodes; ++i) {
    const NodeId id{i};
    if (ex.is_freerider(id) || ex.is_departed(id) || ex.ever_rejoined(id)) {
      continue;
    }
    const auto got = static_cast<double>(ex.engine(id).stats().chunks_received);
    lowest = std::min(lowest, emitted > 0 ? got / emitted : 0.0);
  }
  return lowest;
}

// ---- sim shapes

struct SimShape {
  ScenarioConfig config;
  gossip::PlaybackConfig playback;
  double health_lag_s = 0.0;
  bool streamed = false;      ///< scale-5k's memory diet
  bool score_sampling = false;
};

SimShape sim_shape(Kind kind, const RunPlan& plan) {
  SimShape s;
  auto cfg = ScenarioConfig::planetlab();
  cfg.seed = plan.seed;
  s.playback.clear_threshold = 0.95;
  if (kind == Kind::kPaper) {
    // Audits at p = 0.3 once 20 periods of history exist, score sampling
    // every second: the verifiers, auditor and managers all work.
    cfg.lifting.audit_probability = 0.3;
    cfg.lifting.audit_warmup_periods = 20;
    s.score_sampling = true;
    if (plan.smoke) {
      cfg.duration = seconds(10.0);
      cfg.stream.duration = seconds(9.0);
      s.playback.warmup = seconds(2.0);
      s.health_lag_s = 5.0;
    } else {
      s.playback.warmup = seconds(5.0);
      s.health_lag_s = 8.0;  // the Fig. 1 knee
    }
  } else {
    // bench_scale_nodes' stream-health shape in its memory-diet
    // configuration, at 5,000 nodes.
    cfg.nodes = 5000;
    cfg.duration = seconds(10.0);
    cfg.stream.duration = seconds(9.0);
    cfg.weak_fraction = 0.2;
    cfg.freerider_fraction = 0.10;
    cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.035);
    cfg.lifting.history_retention = seconds(3.0);
    s.playback.warmup = seconds(2.0);
    s.health_lag_s = 5.0;
    s.streamed = true;
  }
  s.config = cfg;
  return s;
}

/// This process's largest resident set so far.
[[nodiscard]] double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Runs `fn` as the phase `name`: a span plus the value "<name>_s".
template <typename F>
void phase(Record& r, const char* name, F&& fn) {
  const int span = r.open(name);
  fn();
  r.close(span);
  const Span& done = r.spans[static_cast<std::size_t>(span)];
  r.set(std::string(name) + "_s", done.end_s - done.start_s);
}

/// Construction plus arming — the set-up the first run_until ends.
void build(const SimShape& s, const RunPlan& plan, std::optional<Experiment>& ex,
           Record& r) {
  const int span = r.open("build");
  const double t0 = now_s();
  ex.emplace(s.config);
  r.set("build_s", now_s() - t0);
  if (s.score_sampling) ex->sample_scores_every(seconds(1.0));
  if (s.streamed) {
    ex->enable_streamed_health({s.health_lag_s}, /*honest_only=*/true,
                               s.playback, seconds(1.0));
  }
  if (plan.traced) ex->enable_trace(plan.trace_capacity);
  r.set("setup_s", now_s() - t0);
  r.close(span);
}

[[nodiscard]] std::vector<runtime::RunSpec> sweep_specs(const RunPlan& plan) {
  auto specs =
      runtime::scenario_sweep_specs(plan.smoke ? kSmokeSweepCases : kSweepCases);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].seed = runtime::derive_task_seed(plan.seed, i);
    specs[i].config.seed = specs[i].seed;
  }
  return specs;
}

// ---- wire helpers

[[nodiscard]] std::string exe_dir() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

/// Reads the peak resident set (procfs VmHWM) of every live child of
/// `parent` into `peak_kb`, keeping each pid's largest reading.
void read_child_peaks(pid_t parent, std::map<int, double>& peak_kb) {
  const std::string task = "/proc/" + std::to_string(parent) + "/task/" +
                           std::to_string(parent) + "/children";
  std::ifstream children(task);
  int child = 0;
  while (children >> child) {
    std::ifstream status("/proc/" + std::to_string(child) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        double& peak = peak_kb[child];
        peak = std::max(peak, std::strtod(line.c_str() + 6, nullptr));
        break;
      }
    }
  }
}

[[nodiscard]] std::uint64_t wire_seed(std::uint64_t seed) {
  // lifting_loopback reads seed 0 as "the preset's own".
  return seed != 0 ? seed : runtime::derive_task_seed(seed, 0);
}

/// lifting_loopback's command line for one wire-16 deployment.
[[nodiscard]] std::vector<std::string> loopback_args(const RunPlan& plan) {
  char stream_arg[32];
  std::snprintf(stream_arg, sizeof stream_arg, "%g",
                plan.smoke ? kSmokeWireStreamS : kWireStreamS);
  return {LIFTING_LOOPBACK_BIN, "--preset", "planetlab", "--nodes",
          std::to_string(kWireNodes), "--seconds", stream_arg,
          "--audit-reliable", "--seed", std::to_string(wire_seed(plan.seed)),
          "--node-bin", LIFTING_NODE_BIN, "--verbose"};
}

/// Starts lifting_loopback in a process group of its own, which its
/// daemons join, with its stdout on the returned descriptor.
[[nodiscard]] pid_t spawn_loopback(std::vector<std::string> args, int& out) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  out = fds[0];
  return pid;
}

/// Spawn to the "launched" line of one lifting_loopback deployment, which
/// is then killed with its daemons.
Record wire_setup_only(const RunPlan& plan) {
  // The killed launcher's daemons are orphaned; as a subreaper this process
  // inherits them, so it can wait for each.
  if (::prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) {
    throw std::runtime_error("cannot become a child subreaper");
  }
  int out = -1;
  const double t0 = now_s();
  const pid_t pid = spawn_loopback(loopback_args(plan), out);
  FILE* in = ::fdopen(out, "r");
  bool launched = false;
  char line[512];
  while (in != nullptr && !launched && std::fgets(line, sizeof line, in) != nullptr) {
    launched = std::strstr(line, "nodes launched") != nullptr;
  }
  const double setup_s = now_s() - t0;
  ::kill(-pid, SIGKILL);
  if (in != nullptr) {
    std::fclose(in);
  } else {
    ::close(out);
  }
  int status = 0;
  while (::waitpid(-1, &status, 0) > 0 || errno == EINTR) {
  }
  if (!launched) throw std::runtime_error("lifting_loopback launched no daemons");
  Record r;
  r.add("m.setup_s", setup_s);
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ScenarioConfig workload_config(Kind kind, const RunPlan& plan) {
  if (kind == Kind::kSweep) return sweep_specs(plan).front().config;
  return sim_shape(kind, plan).config;
}

Record setup_only(Kind kind, const RunPlan& plan) {
  if (kind == Kind::kWire) return wire_setup_only(plan);
  Record r;
  std::optional<Experiment> ex;
  build(sim_shape(kind, plan), plan, ex, r);
  r.add("m.setup_s", r.get("setup_s"));
  return r;
}

Record sim_rep(Kind kind, const RunPlan& plan) {
  Record r;
  const SimShape s = sim_shape(kind, plan);
  const auto& cfg = s.config;
  bench::reset_live_high_water();
  const auto mem0 = bench::AllocSnapshot::now();

  std::optional<Experiment> ex;
  build(s, plan, ex, r);

  // 1 s run_until slices: [0, warmup) is warmup, [warmup, stream end) the
  // measured window, the rest the dissemination tail. Queue depth and
  // allocation calls are sampled at every slice boundary.
  const auto horizon = static_cast<int>(to_s(cfg.duration));
  const auto warmup = static_cast<int>(to_s(s.playback.warmup));
  const auto stream_end = static_cast<int>(to_s(cfg.stream.duration));
  double run_s = 0.0;
  double warmup_s = 0.0;
  std::uint64_t window_events = 0;
  std::uint64_t window_allocs = 0;
  int phase_span = -1;
  for (int t = 1; t <= horizon; ++t) {
    const char* name = t <= warmup ? "warmup" : t <= stream_end ? "run" : "drain";
    if (phase_span < 0 || r.spans[static_cast<std::size_t>(phase_span)].name != name) {
      if (phase_span >= 0) r.close(phase_span);
      phase_span = r.open(name);
    }
    const auto events0 = ex->simulator().events_processed();
    const auto allocs0 = bench::AllocSnapshot::now().calls;
    const int slice = r.open("slice", phase_span);
    const double cpu0 = thread_cpu_s();
    const double a = now_s();
    ex->run_until(kSimEpoch + seconds(static_cast<double>(t)));
    const double dt = now_s() - a;
    const double cpu = thread_cpu_s() - cpu0;
    const auto events = ex->simulator().events_processed() - events0;
    const auto allocs = bench::AllocSnapshot::now().calls - allocs0;
    r.close(slice);
    run_s += dt;
    if (t <= warmup) warmup_s += dt;
    r.add("slice_s", dt);
    r.add("pending", static_cast<double>(ex->simulator().pending_events()));
    if (t > warmup && t <= stream_end) {
      r.add("window_cpu_s", cpu);
      window_events += events;
      window_allocs += allocs;
    }
  }
  r.close(phase_span);
  r.set("run_s", run_s);
  r.set("warmup_s", warmup_s);
  r.set("window_events", static_cast<double>(window_events));
  r.set("window_allocs", static_cast<double>(window_allocs));

  phase(r, "health", [&] {
    const auto curve = s.streamed ? ex->streamed_health_curve()
                                  : ex->health_curve({s.health_lag_s},
                                                     /*honest_only=*/true,
                                                     s.playback);
    r.set("m.health", curve.empty() ? 0.0 : curve.front().fraction_clear);
  });
  phase(r, "score_read", [&] {
    const auto detection = ex->detection_at(cfg.lifting.eta);
    r.set("detection", detection.detection);
    r.set("false_positive", detection.false_positive);
  });
  phase(r, "collect_metrics", [&] { put_registry(*ex, r); });
  phase(r, "digest", [&] {
    put_digest(RunDigest::of(*ex), r);
    r.set("m.delivery_min", delivery_min(*ex));
    r.set("m.verif_overhead", ex->overhead().verification_ratio());
  });

  if (const auto* ring = ex->trace_ring()) {
    TraceTally tally;
    tally_ring(*ring, ex->emitted_chunks(), tally);
    tally.write(r);
  }

  r.set("events", static_cast<double>(ex->simulator().events_processed()));
  r.set("nodes", cfg.nodes);
  r.set("sim_s", to_s(cfg.duration));
  r.set("node_s", cfg.nodes * to_s(cfg.duration));
  r.set("heap_high_water",
        static_cast<double>(bench::AllocSnapshot::now().high_water_since(mem0)));

  r.add("m.setup_s", r.get("setup_s"));
  for (const double cpu : r.all("window_cpu_s")) {
    r.add("m.cpu_ms_per_node_s", cpu * 1e3 / cfg.nodes);
  }
  r.set("m.peak_rss_mb", peak_rss_mb());
  return r;
}

Record sweep_batch(const RunPlan& plan) {
  Record r;
  const auto specs = sweep_specs(plan);

  // Per-case timestamps. A lane is identified by its reused Experiment;
  // the gap between a lane's previous case and this one is the reset (or,
  // on the lane's first case, the construction) run_specs performed.
  struct CaseOut {
    int lane = 0;
    bool first = false;
    double prev_end = 0.0, enter = 0.0, run_end = 0.0, collect = 0.0,
           end = 0.0;
    double cpu_s = 0.0;  ///< the lane thread's CPU from enter to end
    RunDigest digest;
    double health = 0.0, delivery_min = 0.0, sim_s = 0.0;
    runtime::DetectionStats detection;
    std::uint64_t verif_bytes = 0, diss_bytes = 0;
    std::vector<double> pending;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
  };
  std::mutex mu;
  std::vector<const Experiment*> lanes;
  std::array<double, kSweepLanes> last_end{};
  std::vector<TraceTally> tallies(plan.traced ? kSweepLanes : 0);

  gossip::PlaybackConfig playback;  // test_scenario_sweep's judging window
  playback.warmup = seconds(2.0);
  playback.clear_threshold = 0.9;
  playback.common_window_lag = 4.0;

  const auto mem0 = bench::AllocSnapshot::now();
  const double t0 = now_s();
  last_end.fill(t0);
  runtime::ParallelRunner runner(kSweepLanes);
  const auto outs = runner.run_specs<CaseOut>(
      specs, [&](const runtime::RunSpec& spec, Experiment& ex) {
        CaseOut c;
        c.sim_s = to_s(spec.config.duration);
        if (plan.traced) {
          // ~40 records per node-second is the densest case seen.
          ex.enable_trace(static_cast<std::size_t>(
              spec.config.nodes * c.sim_s * 150.0));
        }
        const double cpu0 = thread_cpu_s();
        c.enter = now_s();
        {
          std::lock_guard<std::mutex> lock(mu);
          auto it = std::find(lanes.begin(), lanes.end(), &ex);
          c.first = it == lanes.end();
          if (c.first) it = lanes.insert(lanes.end(), &ex);
          c.lane = static_cast<int>(it - lanes.begin());
          c.prev_end = last_end[static_cast<std::size_t>(c.lane)];
        }
        for (int t = 1;; ++t) {
          const double until = std::min(static_cast<double>(t), c.sim_s);
          ex.run_until(kSimEpoch + seconds(until));
          c.pending.push_back(
              static_cast<double>(ex.simulator().pending_events()));
          if (until >= c.sim_s) break;
        }
        c.run_end = now_s();
        c.digest = RunDigest::of(ex);
        const auto curve = ex.health_curve({4.0}, /*honest_only=*/true, playback);
        c.health = curve.empty() ? 0.0 : curve.front().fraction_clear;
        c.delivery_min = delivery_min(ex);
        c.detection = ex.detection_at(spec.config.lifting.eta);
        const auto overhead = ex.overhead();
        c.verif_bytes = overhead.verification_bytes;
        c.diss_bytes = overhead.dissemination_bytes;
        c.collect = now_s();
        obs::Registry reg;
        ex.collect_metrics(reg);
        for (const auto& e : reg.entries()) {
          if (e.kind == obs::Registry::Kind::kCounter) {
            c.counters.emplace_back(e.name, e.counter);
          }
        }
        if (const auto* ring = ex.trace_ring()) {
          tally_ring(*ring, ex.emitted_chunks(),
                     tallies[static_cast<std::size_t>(c.lane)]);
        }
        c.end = now_s();
        c.cpu_s = thread_cpu_s() - cpu0;
        std::lock_guard<std::mutex> lock(mu);
        last_end[static_cast<std::size_t>(c.lane)] = c.end;
        return c;
      });
  const double batch_s = now_s() - t0;
  const auto batch_allocs = bench::AllocSnapshot::now().calls - mem0.calls;

  RunDigest total;
  std::map<std::string, double> counters;
  std::vector<double> delivery;
  double busy_s = 0.0, node_s = 0.0, sim_s = 0.0, run_s = 0.0,
         collect_s = 0.0, detection = 0.0, false_positive = 0.0, health = 0.0;
  std::uint64_t verif = 0, diss = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const CaseOut& c = outs[i];
    if (plan.traced) {  // per-case spans only in the traced batch
      const int root = static_cast<int>(r.spans.size());
      r.spans.push_back({"case", -1, c.lane, c.prev_end, c.end});
      r.spans.push_back({c.first ? "build" : "reset", root, c.lane, c.prev_end,
                         c.enter});
      r.spans.push_back({"run", root, c.lane, c.enter, c.run_end});
      r.spans.push_back({"digest", root, c.lane, c.run_end, c.collect});
      r.spans.push_back({"collect_metrics", root, c.lane, c.collect, c.end});
    }
    const double case_node_s = specs[i].config.nodes * c.sim_s;
    collect_s += c.end - c.collect;
    r.add("case_first", c.first ? 1.0 : 0.0);
    r.add("case_run_s", c.run_end - c.enter);
    r.add("m.setup_s", c.enter - c.prev_end);
    r.add("m.cpu_ms_per_node_s", c.cpu_s * 1e3 / case_node_s);
    run_s += c.run_end - c.enter;
    health += c.health;
    delivery.push_back(c.delivery_min);
    detection += c.detection.detection;
    false_positive += c.detection.false_positive;
    r.add("case_digest", digest_hash(c.digest));
    for (const double p : c.pending) r.add("pending", p);
    for (const auto& [name, value] : c.counters) {
      counters["reg." + name] += static_cast<double>(value);
    }
    total.accumulate(c.digest);
    busy_s += c.end - c.prev_end;
    sim_s += c.sim_s;
    node_s += case_node_s;
    verif += c.verif_bytes;
    diss += c.diss_bytes;
  }
  for (const auto& [name, value] : counters) r.set(name, value);
  if (plan.traced) {
    tallies[0].merge(tallies[1]);
    tallies[0].write(r);
  }
  put_digest(total, r);
  r.set("run_s", run_s);
  r.set("collect_metrics_s", collect_s);
  r.set("batch_s", batch_s);
  r.set("cases", static_cast<double>(outs.size()));
  r.set("detection", detection / static_cast<double>(outs.size()));
  r.set("false_positive", false_positive / static_cast<double>(outs.size()));
  r.set("lane_busy_s", busy_s);
  r.set("lanes", kSweepLanes);
  r.set("events", static_cast<double>(total.events));
  r.set("sim_s", sim_s);
  r.set("node_s", node_s);
  r.set("batch_allocs", static_cast<double>(batch_allocs));
  // A batch's outcomes: the mean health over its cases, the median of
  // their lowest deliveries, and the verification bytes of all of them
  // over their dissemination bytes.
  r.set("m.health", health / static_cast<double>(outs.size()));
  r.set("m.delivery_min", median(delivery));
  r.set("m.verif_overhead",
        diss == 0 ? 0.0 : static_cast<double>(verif) / static_cast<double>(diss));
  r.set("m.peak_rss_mb", peak_rss_mb());
  return r;
}

Record wire_rep(const RunPlan& plan) {
  Record r;
  const double stream_s = plan.smoke ? kSmokeWireStreamS : kWireStreamS;
  std::string trace_dir;
  auto args = loopback_args(plan);
  if (plan.traced) {
    trace_dir = exe_dir() + "/wire-trace." + std::to_string(::getpid());
    if (::mkdir(trace_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create " + trace_dir);
    }
    args.insert(args.end(), {"--trace-dir", trace_dir, "--trace-capacity",
                             std::to_string(plan.trace_capacity)});
  }

  int out = -1;
  const double t0 = now_s();
  const int spawn = r.open("spawn");
  const pid_t pid = spawn_loopback(std::move(args), out);

  // Launcher output: "launched" ends set-up, the report header ends the
  // stream. Verbose STAT lines carry each daemon's last counter values.
  std::map<int, std::map<std::string, double>> daemon;
  std::map<std::string, double> kind_count;
  double t_launched = 0.0;
  int stream = -1, report = -1;
  bool smoke_ok = false;
  const auto on_line = [&](const char* line) {
    int dpid = 0;
    char key[64];
    char name[64];
    unsigned long long a = 0, b = 0, c = 0;
    double x = 0.0, y = 0.0;
    if (std::strstr(line, "nodes launched") != nullptr) {
      t_launched = now_s();
      r.close(spawn);
      stream = r.open("stream");
    } else if (std::strncmp(line, "== wire bandwidth report", 24) == 0) {
      if (stream >= 0) r.close(stream);
      report = r.open("report");
    } else if (std::sscanf(line, " node %d: STAT %63s %llu", &dpid, key, &a) ==
               3) {
      daemon[dpid][key] = static_cast<double>(a);
    } else if (std::sscanf(line,
                           "dissemination: model %llu B, wire %llu B; "
                           "verification overhead: model %lf, wire %lf",
                           &a, &b, &x, &y) == 4) {
      r.set("m.verif_overhead", y);
    } else if (unsigned long long sock = 0, send = 0;
               std::sscanf(line,
                           "stream: %llu chunks emitted, min delivery %lf "
                           "(node %*u); decode failures %llu, socket errors "
                           "%llu, send failures %llu",
                           &a, &x, &b, &sock, &send) == 5) {
      r.set("chunks_emitted", static_cast<double>(a));
      r.set("transport_errors", static_cast<double>(b + sock + send));
    } else if (std::sscanf(line, "audit channel: %llu sends, %llu retries", &a,
                           &b) == 2) {
      r.set("audit_retries", static_cast<double>(b));
    } else if (std::strncmp(line, "WIRE SMOKE OK", 13) == 0) {
      smoke_ok = true;
    } else if (std::sscanf(line, "%63s %llu %llu %llu %lf", name, &a, &b, &c,
                           &x) == 5) {
      kind_count[name] = static_cast<double>(a);
      r.set(std::string("kind_wire_bytes.") + name, static_cast<double>(c));
    }
  };
  // The daemons' peak resident sets are read from procfs every 250 ms
  // while they run. (The launcher's own rusage cannot give them: a forked
  // child keeps the peak of the process it was forked from, this one.)
  std::map<int, double> daemon_peak_kb;
  std::string buffered;
  for (;;) {
    read_child_peaks(pid, daemon_peak_kb);
    pollfd pfd{out, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 250);
    if (ready == 0) continue;
    char buf[4096];
    const ssize_t n = ready < 0 ? -1 : ::read(out, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffered.append(buf, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = buffered.find('\n')) != std::string::npos;) {
      on_line(buffered.substr(0, nl).c_str());
      buffered.erase(0, nl + 1);
    }
  }
  ::close(out);
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.close(report >= 0 ? report : stream >= 0 ? stream : spawn);
  const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;

  double datagrams = 0.0, wire_bytes = 0.0;
  for (std::size_t k = 0; k < std::variant_size_v<gossip::Message>; ++k) {
    const std::string kind = gossip::message_kind_name(k);
    const auto it = kind_count.find(kind);
    const double count = it == kind_count.end() ? 0.0 : it->second;
    r.add("kind_count", count);
    datagrams += count;
    wire_bytes += r.get("kind_wire_bytes." + kind);
  }
  // Delivery per non-source daemon (the source is the one that emitted).
  const double emitted = r.get("chunks_emitted");
  double lowest = 1.0, clear = 0.0, receivers = 0.0, recorded = 0.0,
         dropped = 0.0;
  std::map<std::string, double> totals;
  for (const auto& [dpid, stats] : daemon) {
    const auto get = [&stats](const char* k) {
      const auto it = stats.find(k);
      return it == stats.end() ? 0.0 : it->second;
    };
    for (const auto& [key, value] : stats) totals["stat." + key] += value;
    recorded += get("trace_recorded");
    dropped += get("trace_dropped");
    if (get("chunks_emitted") > 0.0) continue;
    const double share = emitted > 0.0 ? get("chunks_received") / emitted : 0.0;
    lowest = std::min(lowest, share);
    clear += share >= 0.95 ? 1.0 : 0.0;
    receivers += 1.0;
  }
  for (const auto& [key, value] : totals) r.set(key, value);
  r.set("exit_ok", exited_ok && smoke_ok ? 1.0 : 0.0);
  r.set("m.delivery_min", lowest);
  r.set("m.health", receivers > 0.0 ? clear / receivers : 0.0);
  r.set("datagrams", datagrams);
  r.set("wire_bytes", wire_bytes);
  r.set("cpu_user_s", static_cast<double>(ru.ru_utime.tv_sec) +
                          static_cast<double>(ru.ru_utime.tv_usec) * 1e-6);
  r.set("cpu_sys_s", static_cast<double>(ru.ru_stime.tv_sec) +
                         static_cast<double>(ru.ru_stime.tv_usec) * 1e-6);
  r.set("nodes", kWireNodes);
  r.set("sim_s", stream_s + kWireTailS);
  r.set("node_s", kWireNodes * (stream_s + kWireTailS));
  // The launcher's CPU time includes every daemon's.
  if (t_launched > 0.0) r.set("m.setup_s", t_launched - t0);
  r.set("m.cpu_ms_per_node_s",
        (r.get("cpu_user_s") + r.get("cpu_sys_s")) * 1e3 / r.get("node_s"));
  if (daemon_peak_kb.size() == kWireNodes) {
    double largest = 0.0;
    for (const auto& [daemon, kb] : daemon_peak_kb) largest = std::max(largest, kb);
    r.set("m.peak_rss_mb", largest / 1024.0);
  }

  if (plan.traced) {
    // Every daemon's clock starts at GO, and the source emits chunk c at
    // c × interval (StreamSource's integer-µs interval).
    const auto preset = ScenarioConfig::planetlab();
    const auto interval_us = static_cast<std::int64_t>(
        static_cast<double>(preset.stream.chunk_payload_bytes) * 8.0 /
        preset.stream.bitrate_bps * 1e6);
    TraceTally tally;
    tally.recorded = static_cast<std::uint64_t>(recorded);
    tally.dropped = static_cast<std::uint64_t>(dropped);
    for (std::uint32_t i = 0; i < kWireNodes; ++i) {
      const std::string path = trace_dir + "/node" + std::to_string(i) + ".trace";
      std::vector<obs::TraceRecord> records;
      if (!obs::read_binary_dump(path, records)) {
        throw std::runtime_error("unreadable trace dump " + path);
      }
      for (const auto& rec : records) {
        tally.add(rec, static_cast<std::int64_t>(rec.evidence) * interval_us);
      }
      ::unlink(path.c_str());
    }
    ::rmdir(trace_dir.c_str());
    tally.write(r);
  }
  return r;
}

}  // namespace lifting::e2e
