#ifndef LIFTING_BENCH_E2E_WORKLOADS_HPP
#define LIFTING_BENCH_E2E_WORKLOADS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "record.hpp"
#include "runtime/scenario.hpp"

/// The four benchmark workloads. Each repetition runs inside an isolated
/// child (record.hpp) and calls only public entry points of the library
/// and the wire tools; see README.md for the exact list.

namespace lifting::e2e {

enum class Kind { kPaper, kScale, kSweep, kWire };

/// A workload's name binds it to its implementation; why it was chosen is
/// written beside the name in BENCHMARK.json and README.md.
struct Workload {
  const char* name;
  Kind kind;
};

/// paper-300, scale-5k, sweep-mc, wire-16 — in the order a default set
/// interleaves them.
[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Inputs of one repetition. Every generated config is derived from seed.
struct RunPlan {
  std::uint64_t seed = 1202;
  bool smoke = false;   ///< the short shapes of --smoke
  bool traced = false;  ///< arm the flight recorder
  /// Ring records per repetition (sim) or per daemon (wire) when traced.
  std::size_t trace_capacity = 0;
};

/// One repetition of paper-300 or scale-5k: build, 1 s run_until slices,
/// health, score read, collect_metrics, digest.
[[nodiscard]] Record sim_rep(Kind kind, const RunPlan& plan);
/// Set-up only: construction and arming (paper-300, scale-5k), or a
/// lifting_loopback launch killed once its daemons are up (wire-16).
[[nodiscard]] Record setup_only(Kind kind, const RunPlan& plan);
/// One sweep-mc batch on ParallelRunner(2) through run_specs.
[[nodiscard]] Record sweep_batch(const RunPlan& plan);
/// One lifting_loopback deployment.
[[nodiscard]] Record wire_rep(const RunPlan& plan);

/// The deployment a sim workload runs (sweep-mc: its first case) — the
/// population and link profiles the network probe replays.
[[nodiscard]] runtime::ScenarioConfig workload_config(Kind kind,
                                                      const RunPlan& plan);

// ---- isolated probes of single public calls (probes.cpp)

/// ns per event for sim::Simulator schedule + step with `depth` pending.
[[nodiscard]] double probe_queue_ns(std::size_t depth);
/// ns per datagram through sim::Network<gossip::Message> send + delivery,
/// for the workload's population and link profiles, at its observed
/// datagram rate and mean size.
[[nodiscard]] double probe_network_ns(Kind kind, const RunPlan& plan,
                                      double datagrams_per_sim_s,
                                      double mean_bytes);
/// ns per message for net::encode + net::decode over `kind_counts`
/// (indexed by gossip::Message alternative). Throws on a failed
/// round trip.
[[nodiscard]] double probe_codec_ns(const std::vector<double>& kind_counts);

}  // namespace lifting::e2e

#endif  // LIFTING_BENCH_E2E_WORKLOADS_HPP
