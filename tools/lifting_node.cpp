// lifting_node — one-node daemon of the wire deployment.
//
// Hosts a single node's Engine/Agent stack (runtime::NodeHost) over real
// UDP datagrams. The launcher (lifting_loopback) speaks a line protocol
// over stdin/stdout:
//
//   launcher -> daemon   the wire scenario (key value lines), then
//                        "END_SCENARIO"
//   daemon  -> launcher  "PORT <p>"           (endpoint bound)
//   launcher -> daemon   "ROSTER <p0> ... <pn-1>",
//                        optionally "TRACE <dump path> <ring capacity>",
//                        then "GO"
//   daemon  -> launcher  (runs the scenario against the wall clock,
//                        streaming periodic "STAT <key> <value>" lines)
//                        final "STAT <key> <value>" lines,
//                        "KIND <name> <count> <modeled> <wire>" lines,
//                        "DONE"
//
// STAT keys repeat across the periodic snapshots; consumers take the last
// occurrence (the launcher's parser assigns, so re-reads are idempotent).
// The optional TRACE line arms the flight recorder (DESIGN.md §13); the
// binary dump is written right before DONE and merged across processes by
// tools/lifting_trace.
//
// Standalone usage (mostly for debugging a single daemon by hand):
//   ./lifting_node --self 3 < scenario_with_roster.txt

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gossip/message.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "runtime/node_host.hpp"
#include "runtime/wire_scenario.hpp"

namespace {

int fail(const std::string& why) {
  std::printf("ERROR %s\n", why.c_str());
  std::fflush(stdout);
  return 1;
}

/// Folds the host's counters and prints one STAT line per registry
/// counter. Called mid-run (stat hook) and once after the drain — the
/// registry keeps its slots across calls, so every snapshot re-folds the
/// same keys in the same order.
void emit_stats(lifting::runtime::NodeHost& host, lifting::obs::Registry& reg) {
  host.collect_metrics(reg);
  for (const auto& entry : reg.entries()) {
    if (entry.kind != lifting::obs::Registry::Kind::kCounter) continue;
    std::printf("STAT %s %llu\n", entry.name.c_str(),
                static_cast<unsigned long long>(entry.counter));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lifting;

  std::uint32_t self_id = 0;
  bool have_self = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self") == 0 && i + 1 < argc) {
      self_id = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      have_self = true;
    } else {
      return fail(std::string("unknown argument: ") + argv[i]);
    }
  }
  if (!have_self) return fail("--self <node id> is required");

  // ---- scenario block
  std::string scenario_text;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "END_SCENARIO") break;
    scenario_text += line;
    scenario_text += '\n';
  }
  std::string error;
  const auto config = runtime::decode_wire_scenario(scenario_text, &error);
  if (!config.has_value()) return fail("bad scenario: " + error);
  if (!runtime::wire_supported(*config, &error)) {
    return fail("unsupported scenario: " + error);
  }
  if (self_id >= config->nodes) return fail("--self outside the population");

  runtime::NodeHost host(*config, NodeId{self_id});
  std::printf("PORT %u\n", host.port());
  std::fflush(stdout);

  // ---- roster + optional trace arming + go
  std::vector<std::uint16_t> ports;
  std::string trace_path;
  bool go = false;
  while (std::getline(std::cin, line)) {
    if (line == "GO") {
      go = true;
      break;
    }
    std::istringstream in(line);
    std::string word;
    in >> word;
    if (word == "ROSTER") {
      ports.clear();
      unsigned long p = 0;
      while (in >> p) ports.push_back(static_cast<std::uint16_t>(p));
    } else if (word == "TRACE") {
      std::size_t capacity = 0;
      if (!(in >> trace_path >> capacity) || capacity == 0) {
        return fail("TRACE needs <dump path> <ring capacity>");
      }
      host.enable_trace(capacity);
    } else {
      return fail("expected ROSTER, TRACE or GO, got: " + line);
    }
  }
  if (!go) return fail("stdin closed before GO");
  if (ports.size() != config->nodes) return fail("roster size mismatch");
  host.set_roster(ports);

  // Stream a counter snapshot every second so the launcher (or a human
  // tailing the pipe) sees progress mid-run, not just the postmortem.
  obs::Registry registry;
  host.set_stat_hook(seconds(1.0), [&] { emit_stats(host, registry); });

  host.run();

  // ---- report: final STAT totals, per-kind wire accounting, trace dump
  emit_stats(host, registry);
  const auto& kinds = host.transport().wire_stats();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i].count == 0) continue;
    std::printf("KIND %s %llu %llu %llu\n", gossip::message_kind_name(i),
                static_cast<unsigned long long>(kinds[i].count),
                static_cast<unsigned long long>(kinds[i].modeled_bytes),
                static_cast<unsigned long long>(kinds[i].wire_bytes));
  }
  if (!trace_path.empty()) {
    if (!obs::write_binary_dump(trace_path, *host.trace_ring(), self_id)) {
      return fail("failed to write trace dump: " + trace_path);
    }
  }
  std::printf("DONE\n");
  std::fflush(stdout);
  return 0;
}
