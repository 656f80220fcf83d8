// lifting_bench — the repository's end-to-end benchmark.
//
//   lifting_bench [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//                 [--json PATH] [--smoke]
//   lifting_bench --compare A.json B.json
//
// Runs each selected workload for about T seconds of repetitions (at least
// one), each repetition in its own child process, interleaving workloads
// so host drift spreads across all of them. --trace 1 adds one traced
// repetition and the layer probes per workload and reports the per-layer
// metrics instead of the end-to-end ones. Prints every metric with its
// unit, then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness gate failed (README.md lists them).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace lifting::e2e;

/// Set-up-only children per sim or wire workload.
constexpr std::size_t kSetupSamples = 9;
constexpr std::size_t kMaxReps = 64;
constexpr double kMinHealth = 0.85;

struct Options {
  std::string workload;
  std::uint64_t seed = 1202;  // the PlanetLab preset's own seed
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string json;
  std::string compare_a, compare_b;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: lifting_bench [--workload paper-300|scale-5k|sweep-mc|"
               "wire-16] [--seed S] [--seconds T] [--trace 0|1] "
               "[--json PATH] [--smoke]\n"
               "       lifting_bench --compare A.json B.json\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    const auto number = [&](double lo, double hi) {
      const std::string v = value();
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || x < lo || x > hi) usage();
      return x;
    };
    if (arg == "--workload") {
      opt.workload = value();
      if (find_workload(opt.workload) == nullptr) usage();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage();
    } else if (arg == "--seconds") {
      opt.seconds = number(0.0, 3600.0);
    } else if (arg == "--trace") {
      opt.trace = number(0.0, 1.0) != 0.0;
    } else if (arg == "--json") {
      opt.json = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--compare") {
      opt.compare_a = value();
      opt.compare_b = value();
    } else {
      usage();
    }
  }
  return opt;
}

bool is_sim(Kind kind) { return kind == Kind::kPaper || kind == Kind::kScale; }

std::function<Record()> rep_body(Kind kind, const RunPlan& plan) {
  switch (kind) {
    case Kind::kSweep:
      return [plan] { return sweep_batch(plan); };
    case Kind::kWire:
      return [plan] { return wire_rep(plan); };
    default:
      return [kind, plan] { return sim_rep(kind, plan); };
  }
}

/// Runs `body` isolated and files its spans under the workload span (0).
Isolated run_span(WorkloadResult& w, const char* name,
                  const std::function<Record()>& body) {
  const double start = now_s();
  Isolated iso = run_isolated(body);
  const int rep = static_cast<int>(w.spans.size());
  w.spans.push_back({name, 0, 0, start, start + iso.wall_s});
  const int base = static_cast<int>(w.spans.size());
  for (Span s : iso.record.spans) {
    s.parent = s.parent < 0 ? rep : base + s.parent;
    w.spans.push_back(std::move(s));
  }
  w.spans.front().end_s = start + iso.wall_s;
  return iso;
}

/// The correctness gates. Each failure counts failed ops and is reported.
void apply_gates(WorkloadResult& w) {
  const Kind kind = w.workload->kind;
  const auto fail = [&w](std::uint64_t ops, std::string why) {
    w.failed += ops;
    w.failures.push_back(std::move(why));
  };
  std::vector<const Isolated*> runs;
  for (const auto& rep : w.reps) runs.push_back(&rep);
  if (w.traced) runs.push_back(&*w.traced);

  if (kind == Kind::kWire) {
    for (const auto* run : runs) {
      const Record& r = run->record;
      const auto daemons = static_cast<std::uint64_t>(r.get("nodes", 16));
      w.attempted += static_cast<std::uint64_t>(r.get("datagrams")) + daemons;
      if (!run->ok || r.get("exit_ok") != 1.0) {
        fail(daemons, "lifting_loopback exited nonzero or failed its checks");
      }
      if (const double errors = r.get("transport_errors"); errors > 0.0) {
        fail(static_cast<std::uint64_t>(errors), "transport errors on loopback");
      }
    }
  } else {
    // Every repetition (the traced one included: armed recording is
    // passive) must reproduce the first one's fixed-seed digest.
    const double ops = kind == Kind::kSweep && !runs.empty()
                           ? runs.front()->record.get("cases", 1.0)
                           : 1.0;
    const Isolated* ref = nullptr;
    for (const auto* run : runs) {
      w.attempted += static_cast<std::uint64_t>(ops);
      if (!run->ok) {
        fail(static_cast<std::uint64_t>(ops), "a repetition crashed");
        continue;
      }
      if (ref == nullptr) {
        ref = run;
        continue;
      }
      if (kind == Kind::kSweep) {
        const auto& a = ref->record.all("case_digest");
        const auto& b = run->record.all("case_digest");
        std::uint64_t differing = 0;
        if (a.size() != b.size()) {
          differing = std::max(a.size(), b.size());
        } else {
          for (std::size_t i = 0; i < a.size(); ++i) differing += a[i] != b[i];
        }
        if (differing > 0) {
          fail(differing, std::to_string(differing) +
                              " sweep cases changed their fixed-seed digest");
        }
      } else if (run->record.get("digest.hash") != ref->record.get("digest.hash")) {
        fail(1, "a repetition's fixed-seed RunDigest differs from the first");
      }
    }
    if (is_sim(kind)) {
      for (const auto* run : runs) {
        if (run->ok && run->record.get("m.health") < kMinHealth) {
          fail(1, "health " + std::to_string(run->record.get("m.health")) +
                      " below 0.85");
        }
      }
    }
  }
  if (w.traced && w.traced->ok && w.traced->record.get("trace.dropped") > 0.0) {
    fail(1, "the traced repetition's ring dropped records");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  (void)end_to_end_metrics();  // throws now, not after the runs, on a bad catalogue
  if (!opt.compare_a.empty()) return compare(opt.compare_a, opt.compare_b);

  // ---- which workloads, and how long
  std::vector<WorkloadResult> results;
  for (const auto& w : workloads()) {
    const bool selected = opt.workload.empty()
                              ? !(opt.smoke && w.kind == Kind::kScale)
                              : opt.workload == w.name;
    if (selected) {
      results.emplace_back();
      results.back().workload = &w;
    }
  }
  const bool trace = opt.trace || opt.smoke;  // the smoke run checks every gate
  const double budget = opt.smoke ? 0.0 : opt.seconds;
  RunPlan plan;
  plan.seed = opt.seed;
  plan.smoke = opt.smoke;
  for (auto& w : results) w.spans.push_back({w.workload->name, -1, 0, now_s(), now_s()});

  // ---- untraced repetitions, interleaved round-robin until each workload
  // has spent its budget: one at least, another only if it would still
  // fit. (scale-5k's take more than half the budget, so its digest gate
  // compares repetitions only in a traced run.)
  std::vector<double> spent(results.size(), 0.0);
  for (bool more = true; more;) {
    more = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      auto& w = results[i];
      const double last = w.reps.empty() ? 0.0 : w.reps.back().wall_s;
      const bool want = w.reps.empty() ||
                        (spent[i] + last <= budget && w.reps.size() < kMaxReps);
      if (!want) continue;
      more = true;
      w.reps.push_back(run_span(w, "rep", rep_body(w.workload->kind, plan)));
      spent[i] += w.reps.back().wall_s;
      std::fprintf(stderr, "[%s] rep %zu: %.2f s\n", w.workload->name,
                   w.reps.size(), w.reps.back().wall_s);
    }
  }

  // ---- more set-up samples from set-up-only children (a sim or wire
  // repetition sets up once; the sweep's set-ups are its per-case builds
  // and resets)
  for (auto& w : results) {
    const Kind kind = w.workload->kind;
    if (kind == Kind::kSweep) continue;
    while (w.setups.size() < kSetupSamples) {
      w.setups.push_back(
          run_span(w, "setup", [kind, plan] { return setup_only(kind, plan); }));
      w.attempted += 1;
      if (!w.setups.back().ok) {
        w.failed += 1;
        w.failures.push_back("a set-up-only child failed");
        break;
      }
    }
  }

  // ---- traced repetition and layer probes
  if (trace) {
    for (auto& w : results) {
      const Kind kind = w.workload->kind;
      const Isolated* first = nullptr;
      for (const auto& rep : w.reps) {
        if (rep.ok && first == nullptr) first = &rep;
      }
      if (first == nullptr) continue;
      const Record& r = first->record;
      RunPlan traced = plan;
      traced.traced = true;
      // Ring sizes with headroom over the densest record rate seen
      // (0.9 records per event; a daemon records < 2^12 per second).
      traced.trace_capacity =
          kind == Kind::kWire
              ? std::size_t{1} << 18
              : std::max<std::size_t>(1 << 16,
                                      static_cast<std::size_t>(r.get("events") * 1.1));
      w.traced = run_span(w, "traced_rep", rep_body(kind, traced));

      w.probes = run_span(w, "probes", [kind, plan, r] {
        Record p;
        if (kind == Kind::kWire) {
          p.set("codec_ns", probe_codec_ns(r.all("kind_count")));
          return p;
        }
        const double sent = r.get("reg.net.datagrams_sent");
        const double messages = sent + r.get("reg.net.reliable_sent");
        p.set("queue_ns",
              probe_queue_ns(static_cast<std::size_t>(median(r.all("pending")))));
        p.set("network_ns",
              probe_network_ns(kind, plan, sent / r.get("sim_s"),
                               messages > 0 ? r.get("reg.net.bytes_sent") / messages
                                            : 1.0));
        return p;
      }).record;
    }
  }

  bool correct = true;
  for (auto& w : results) {
    apply_gates(w);
    summarize(w);
    correct = correct && w.failed == 0 && w.attempted > 0;
  }
  const Header header{opt.seed, opt.seconds, trace, opt.smoke};
  print_table(header, results);
  if (!opt.json.empty()) {
    if (!write_json(opt.json, header, results)) {
      std::fprintf(stderr, "lifting_bench: cannot write %s\n", opt.json.c_str());
      correct = false;
    }
  }
  std::printf("%s\n", result_line(results, opt.trace).c_str());
  return correct ? 0 : 1;
}
