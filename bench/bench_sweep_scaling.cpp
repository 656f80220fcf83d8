/// Sweep-throughput scaling bench: the randomized 20-config scenario-sweep
/// workload (src/runtime/sweep.hpp — the same cases test_scenario_sweep
/// checks invariants on) executed by the ParallelRunner at 1, 2, 4 and
/// hardware threads.
///
/// Reports scenarios/s per thread count and — the part that matters more
/// than the speedup — asserts that every parallel run's per-task digests
/// and the task-ordered aggregate are BIT-IDENTICAL to the serial
/// reference (exit 1 otherwise). On hardware with >= 4 cores the bench
/// also asserts >= 3x scenarios/s at 4 threads vs 1 thread; on smaller
/// machines it prints the measurement and skips the ratio assertion
/// (there is nothing to scale onto).
///
/// The second section measures what Experiment::reset buys: heap
/// allocation (calls, bytes and live-bytes high water, via the counting
/// operator new in bench/alloc_tally.hpp) per repetition of one sweep
/// scenario, rebuilding from scratch vs rewinding the built deployment.
/// The reset path must allocate strictly less (exit 1 otherwise).
///
/// The third section is the steady-state claim behind the memory diet:
/// once a reused planetlab deployment is past warmup, running further
/// periods performs ZERO heap allocations — every per-period structure
/// (proposal rings, scratch buffers, event arena, delivery pool) recycles
/// storage it already owns. Asserted exactly (exit 1 on any allocation).
///
/// Usage: bench_sweep_scaling [--threads N] [--cases N] [--reps N]
///   --threads caps the largest thread count exercised (default: all of
///   1/2/4/hardware_concurrency that fit); --cases sizes the workload
///   (default 20); --reps sizes the allocation comparison (default 4).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "alloc_tally.hpp"
#include "common/block_pool.hpp"
#include "common/build_info.hpp"
#include "common/table.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"

namespace {

using namespace lifting;
using bench::AllocSnapshot;
using runtime::ParallelRunner;
using runtime::RunDigest;
using runtime::RunSpec;

bool digests_match(const std::vector<RunDigest>& a,
                   const std::vector<RunDigest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t cases =
      runtime::parse_flag(argc, argv, "--cases", 1, 1'000'000, 20);
  const std::uint32_t reps =
      runtime::parse_flag(argc, argv, "--reps", 1, 1'000'000, 4);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned max_threads = ParallelRunner::threads_from_args(argc, argv);

  std::printf("=== sweep scaling: %u-config scenario sweep on the parallel "
              "runner ===\n",
              cases);
  std::printf("build=%s sanitizer=%s hardware_threads=%u max_threads=%u\n\n",
              build_type(), sanitizer_tag(), hw, max_threads);

  const auto specs = runtime::scenario_sweep_specs(cases);

  // ---- serial reference
  ParallelRunner serial(1);
  auto t0 = std::chrono::steady_clock::now();
  const auto reference = serial.run_digests(specs);
  auto t1 = std::chrono::steady_clock::now();
  const double serial_wall = std::chrono::duration<double>(t1 - t0).count();
  const double serial_rate = static_cast<double>(cases) / serial_wall;

  RunDigest serial_total;
  for (const auto& d : reference) serial_total.accumulate(d);

  TextTable table({"threads", "wall s", "scenarios/s", "speedup",
                   "aggregate identical"});
  table.add_row({"1", TextTable::num(serial_wall, 2),
                 TextTable::num(serial_rate, 2), "1.00", "reference"});

  // ---- parallel runs: every digest must equal the serial reference.
  std::vector<unsigned> counts;
  for (const unsigned t : {2u, 4u, hw}) {
    if (t <= 1 || t > max_threads) continue;
    bool seen = false;
    for (const unsigned c : counts) seen = seen || c == t;
    if (!seen) counts.push_back(t);
  }
  int failures = 0;
  double rate_at_4 = 0.0;
  for (const unsigned threads : counts) {
    ParallelRunner runner(threads);
    t0 = std::chrono::steady_clock::now();
    const auto digests = runner.run_digests(specs);
    t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    const double rate = static_cast<double>(cases) / wall;
    if (threads == 4) rate_at_4 = rate;
    const bool identical = digests_match(reference, digests);
    if (!identical) ++failures;
    char label[16];
    std::snprintf(label, sizeof(label), "%u", threads);
    table.add_row({label, TextTable::num(wall, 2), TextTable::num(rate, 2),
                   TextTable::num(rate / serial_rate, 2),
                   identical ? "yes" : "NO — BUG"});
    std::fprintf(stderr, "[sweep-scaling] threads=%u: %.2fs (%.2f scen/s, "
                 "%.2fx), identical=%s\n",
                 threads, wall, rate, rate / serial_rate,
                 identical ? "yes" : "NO");
  }
  table.print();
  std::printf("\nserial aggregate: %llu events, %llu datagrams (%llu "
              "dropped), %llu blame emissions over %u runs\n",
              (unsigned long long)serial_total.events,
              (unsigned long long)serial_total.datagrams_sent,
              (unsigned long long)serial_total.datagrams_dropped,
              (unsigned long long)serial_total.blame_emissions, cases);
  std::printf("fault/audit columns (part of every digest compared above): "
              "faults dropped %llu, duplicated %llu, delayed %llu; audit "
              "retries %llu, give-ups %llu, dups suppressed %llu\n",
              (unsigned long long)serial_total.faults_dropped,
              (unsigned long long)serial_total.faults_duplicated,
              (unsigned long long)serial_total.faults_delayed,
              (unsigned long long)serial_total.audit_retries,
              (unsigned long long)serial_total.audit_give_ups,
              (unsigned long long)serial_total.audit_dups_suppressed);

  if (hw >= 4 && rate_at_4 > 0.0) {
    const double speedup = rate_at_4 / serial_rate;
    std::printf("\n4-thread speedup: %.2fx (floor: 3.00x)\n", speedup);
    if (speedup < 3.0) {
      std::fprintf(stderr, "bench_sweep_scaling: 4-thread speedup %.2fx "
                   "below the 3x floor\n", speedup);
      ++failures;
    }
  } else if (hw < 4) {
    std::printf("\n4-thread speedup floor skipped: hardware has %u "
                "thread(s); identity checks above still apply.\n", hw);
  } else {
    std::printf("\n4-thread speedup floor skipped: --threads capped the "
                "sweep at %u; identity checks above still apply.\n",
                max_threads);
  }

  // ---- Experiment::reset vs rebuild-from-scratch allocation accounting.
  // Two repetition regimes: a full-horizon sweep case (run-time protocol
  // bookkeeping dilutes the rebuild cost) and the short-horizon regime the
  // reset path was built for — Monte-Carlo repetitions where the world is
  // torn down and rebuilt after only a few simulated seconds, so the
  // rebuild-allocation storm dominates. reset must allocate strictly less
  // in both.
  std::printf("\n--- repetition cost: fresh construction vs "
              "Experiment::reset (%u reps each) ---\n", reps);

  auto sweep_cfg = specs[specs.size() > 1 ? 1 : 0].config;  // churny case
  auto short_cfg = runtime::ScenarioConfig::planetlab();
  short_cfg.duration = seconds(3.0);
  short_cfg.stream.duration = seconds(2.5);

  struct Regime {
    const char* name;
    runtime::ScenarioConfig config;
  };
  const Regime regimes[] = {
      {"sweep case, full horizon", sweep_cfg},
      {"planetlab 300, 3 s horizon", short_cfg},
  };

  TextTable alloc({"repetition regime", "path", "allocs/rep", "bytes/rep",
                   "high-water B", "vs fresh"});
  for (const auto& regime : regimes) {
    auto fresh_digest = RunDigest{};
    // Each fresh tally starts from an empty pool: the blocks this thread
    // kept from earlier work depend on how the sweep's cases fell to
    // lanes, and would move the fresh rows from run to run.
    detail::BlockPool::release_idle();
    bench::reset_live_high_water();
    const auto fresh_start = AllocSnapshot::now();
    for (std::uint32_t r = 0; r < reps; ++r) {
      runtime::Experiment ex(regime.config);
      ex.run();
      fresh_digest = RunDigest::of(ex);
    }
    const auto fresh_end = AllocSnapshot::now();
    const auto fresh_cost = fresh_end.delta_since(fresh_start);
    const auto fresh_hw = fresh_end.high_water_since(fresh_start);

    runtime::Experiment reused(regime.config);  // built outside the tally
    reused.run();
    auto reset_digest = RunDigest::of(reused);
    bench::reset_live_high_water();
    const auto reset_start = AllocSnapshot::now();
    for (std::uint32_t r = 0; r < reps; ++r) {
      reused.reset();
      reused.run();
      reset_digest = RunDigest::of(reused);
    }
    const auto reset_end = AllocSnapshot::now();
    const auto reset_cost = reset_end.delta_since(reset_start);
    const auto reset_hw = reset_end.high_water_since(reset_start);

    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1f%% of bytes",
                  fresh_cost.bytes == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(reset_cost.bytes) /
                            static_cast<double>(fresh_cost.bytes));
    alloc.add_row({regime.name, "fresh build",
                   TextTable::num(static_cast<double>(fresh_cost.calls) / reps, 0),
                   TextTable::num(static_cast<double>(fresh_cost.bytes) / reps, 0),
                   TextTable::num(static_cast<double>(fresh_hw), 0),
                   "100%"});
    alloc.add_row({"", "reset reuse",
                   TextTable::num(static_cast<double>(reset_cost.calls) / reps, 0),
                   TextTable::num(static_cast<double>(reset_cost.bytes) / reps, 0),
                   TextTable::num(static_cast<double>(reset_hw), 0),
                   ratio});
    // The absolute saving per repetition, for trend-tracking flat-map work
    // (DirectVerifier::pending_ in PR 4, CrossChecker::batches_/rounds_
    // in this PR): the delta is what those changes shrink.
    alloc.add_row(
        {"", "delta (fresh - reset)",
         TextTable::num((static_cast<double>(fresh_cost.calls) -
                         static_cast<double>(reset_cost.calls)) /
                            reps, 0),
         TextTable::num((static_cast<double>(fresh_cost.bytes) -
                         static_cast<double>(reset_cost.bytes)) /
                            reps, 0),
         TextTable::num(static_cast<double>(fresh_hw) -
                            static_cast<double>(reset_hw), 0),
         "saved/rep"});
    if (!(reset_digest == fresh_digest)) {
      std::fprintf(stderr, "bench_sweep_scaling: reset repetition digest "
                   "diverged from fresh construction (%s)\n", regime.name);
      ++failures;
    }
    if (reset_cost.bytes >= fresh_cost.bytes ||
        reset_cost.calls >= fresh_cost.calls) {
      std::fprintf(stderr, "bench_sweep_scaling: Experiment::reset did not "
                   "allocate less than rebuilding from scratch (%s)\n",
                   regime.name);
      ++failures;
    }
  }
  alloc.print();

  // ---- steady-state allocation: a warmed planetlab deployment in the
  // memory-diet configuration (streamed health folding delivery logs,
  // shortened history retention) must run further protocol periods without
  // a single heap allocation — ring pages, scratch buffers, spill blocks,
  // the event arena and the delivery pool all recycle storage they already
  // own, and every remaining container is either window-bounded or
  // pre-sized for the stream. The first pass runs the full horizon;
  // reset() then tears the per-node objects down, which returns every
  // ring page and every other growable block to the thread's block pool,
  // and replays the identical run. The replay's demand in each block class
  // at any instant equals the first pass's, and the pool already holds
  // that pass's peak count of the class (far below the pool's 8 MiB
  // per-class cap), so no block is ever allocated. The warmed window is
  // allocation-free by construction, not by statistical luck. This is the
  // per-period zero-allocation invariant the paged logs, the flat engine
  // tables and the block pool exist for.
  {
    auto diet_cfg = runtime::ScenarioConfig::planetlab();
    diet_cfg.duration = seconds(12.0);
    diet_cfg.stream.duration = seconds(11.0);
    diet_cfg.lifting.history_retention = seconds(3.0);
    gossip::PlaybackConfig playback;
    playback.clear_threshold = 0.95;
    playback.warmup = seconds(2.0);
    runtime::Experiment steady(diet_cfg);
    steady.enable_streamed_health({2.0}, /*honest_only=*/true, playback,
                                  /*fold_interval=*/seconds(0.5));
    steady.run();   // first pass: every structure reaches its high water
    steady.reset(); // pages and blocks go back to the pool for the replay
    steady.enable_streamed_health({2.0}, /*honest_only=*/true, playback,
                                  /*fold_interval=*/seconds(0.5));
    steady.run_until(kSimEpoch + seconds(6.0));  // replayed warmup
    const auto steady_start = AllocSnapshot::now();
    steady.run_until(kSimEpoch + seconds(11.0));
    const auto steady_cost = AllocSnapshot::now().delta_since(steady_start);
    std::printf("\nsteady-state allocations (planetlab 300, memory diet, "
                "continuous run, sim t=6s -> 11s): %llu calls, %llu bytes\n",
                (unsigned long long)steady_cost.calls,
                (unsigned long long)steady_cost.bytes);
    if (steady_cost.calls != 0) {
      std::fprintf(stderr, "bench_sweep_scaling: steady-state window "
                   "performed %llu heap allocations (expected 0)\n",
                   (unsigned long long)steady_cost.calls);
      ++failures;
    }
  }

  return failures == 0 ? 0 : 1;
}
