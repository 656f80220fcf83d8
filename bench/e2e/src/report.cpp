#include "report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/build_info.hpp"
#include "gossip/message.hpp"
#include "obs/trace.hpp"

namespace lifting::e2e {

/// BENCHMARK.json's text (catalogue.cpp, generated by CMakeLists.txt).
extern const char* const kCatalogueJson;

namespace {

// ---- a minimal JSON reader: BENCHMARK.json and the files write_json
// produces.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0.0;
  bool boolean = false;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] double num(const std::string& key, double fallback = 0.0) const {
    const Json* v = get(key);
    return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const Json* v = get(key);
    return v != nullptr ? v->string : std::string();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::optional<Json> parse() {
    Json v;
    if (!value(v)) return std::nullopt;
    skip();
    if (i_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }
  bool string(std::string& out) {
    if (s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) {
        ++i_;
        if (s_[i_] == 'u') {  // only \u00XX is ever written
          if (i_ + 4 >= s_.size()) return false;
          out += static_cast<char>(std::stoi(s_.substr(i_ + 1, 4), nullptr, 16));
          i_ += 5;
          continue;
        }
      }
      out += s_[i_++];
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }
  bool value(Json& v) {
    skip();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++i_;
      skip();
      if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
      for (;;) {
        skip();
        std::string key;
        if (i_ >= s_.size() || !string(key)) return false;
        skip();
        if (i_ >= s_.size() || s_[i_++] != ':') return false;
        Json child;
        if (!value(child)) return false;
        v.object.emplace_back(std::move(key), std::move(child));
        skip();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') {
          ++i_;
          continue;
        }
        return s_[i_++] == '}';
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++i_;
      skip();
      if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
      for (;;) {
        Json child;
        if (!value(child)) return false;
        v.array.push_back(std::move(child));
        skip();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') {
          ++i_;
          continue;
        }
        return s_[i_++] == ']';
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      return string(v.string);
    }
    if (literal("true")) return v.type = Json::Type::kBool, v.boolean = true, true;
    if (literal("false")) return v.type = Json::Type::kBool, true;
    if (literal("null")) return true;
    char* end = nullptr;
    v.number = std::strtod(s_.c_str() + i_, &end);
    if (end == s_.c_str() + i_) return false;
    v.type = Json::Type::kNumber;
    i_ = static_cast<std::size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

struct Catalogue {
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

const Catalogue& catalogue() {
  static const Catalogue c = [] {
    const auto json = JsonParser(kCatalogueJson).parse();
    if (!json) throw std::runtime_error("BENCHMARK.json does not parse");
    Catalogue out;
    for (const auto& [key, into] :
         {std::pair{"end_to_end", &out.end_to_end},
          std::pair{"per_layer", &out.per_layer}}) {
      const Json* list = json->get(key);
      if (list == nullptr || list->array.empty()) {
        throw std::runtime_error(std::string("BENCHMARK.json lists no ") + key);
      }
      for (const auto& m : list->array) {
        into->push_back({m.str("name"), m.str("unit"), m.str("better") == "higher",
                         m.num("bound")});
      }
    }
    return out;
  }();
  return c;
}

const MetricDef* find_metric(const std::string& name) {
  for (const auto* list : {&catalogue().end_to_end, &catalogue().per_layer}) {
    for (const auto& def : *list) {
      if (def.name == name) return &def;
    }
  }
  return nullptr;
}

/// Fixed-seed outcomes. On one seed a simulation repeats them exactly (the
/// wire within loopback timing), so --compare holds them to these absolute
/// tolerances, not to BENCHMARK.json's bounds, which are shares wide enough
/// for the spread across seeds. Their directions are the catalogue's.
struct Tolerance {
  const char* name;
  double absolute;
};
constexpr Tolerance kOutcomeTolerances[] = {
    {"health", 0.005},
    {"delivery_min", 0.01},
    {"verif_overhead", 0.002},
    {"lifting.detection", 0.01},
    {"lifting.false_positive", 0.01},
};

[[nodiscard]] bool is_outcome(const std::string& name) {
  return std::any_of(std::begin(kOutcomeTolerances), std::end(kOutcomeTolerances),
                     [&](const Tolerance& t) { return name == t.name; });
}

[[nodiscard]] double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

[[nodiscard]] std::string jnum(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

[[nodiscard]] std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// The host's CPU model, for output headers.
[[nodiscard]] std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

/// The record's message counts per gossip::Message alternative (wire: the
/// launcher's kind table; sim: the Mailer's sent.<kind>.count counters).
[[nodiscard]] std::vector<double> kind_counts(const Record& r) {
  if (!r.all("kind_count").empty()) return r.all("kind_count");
  std::vector<double> out;
  for (std::size_t k = 0; k < std::variant_size_v<gossip::Message>; ++k) {
    out.push_back(r.get(std::string("reg.sent.") +
                        gossip::message_kind_name(k) + ".count"));
  }
  return out;
}

/// The metrics --trace 0 (end to end) or --trace 1 (per layer) reports.
[[nodiscard]] std::vector<std::pair<const MetricDef*, double>> reported(
    const WorkloadResult& w, bool trace) {
  std::vector<std::pair<const MetricDef*, double>> out;
  if (trace) {
    for (const auto& def : catalogue().per_layer) {
      const auto it = w.per_layer.find(def.name);
      if (it != w.per_layer.end()) out.emplace_back(&def, it->second);
    }
  } else {
    for (const auto& def : catalogue().end_to_end) {
      const auto it = w.end_to_end.find(def.name);
      if (it != w.end_to_end.end()) out.emplace_back(&def, it->second.value);
    }
  }
  return out;
}

void summarize_layers(WorkloadResult& w, const std::vector<const Isolated*>& reps);

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() { return catalogue().end_to_end; }
const std::vector<MetricDef>& per_layer_metrics() { return catalogue().per_layer; }

void summarize(WorkloadResult& w) {
  std::vector<const Isolated*> reps;
  for (const auto& rep : w.reps) {
    if (rep.ok) reps.push_back(&rep);
  }
  if (reps.empty()) return;

  // Each repetition (and, for setup_s, each set-up-only child) recorded its
  // samples of end-to-end metric X as "m.X" (workloads.cpp).
  for (const auto& def : catalogue().end_to_end) {
    std::vector<const Isolated*> from = reps;
    for (const auto& s : w.setups) {
      if (s.ok && !s.record.all("m." + def.name).empty()) from.push_back(&s);
    }
    MetricValue m;
    std::vector<double> pooled;
    bool complete = true;
    for (const auto* rep : from) {
      const auto& v = rep->record.all("m." + def.name);
      if (v.empty()) complete = false;
      if (v.empty()) continue;
      pooled.insert(pooled.end(), v.begin(), v.end());
      m.per_rep.push_back(median(v));
    }
    if (!complete) {
      w.failed += 1;
      w.failures.push_back("a repetition produced no " + def.name);
      continue;
    }
    m.value = median(pooled);
    m.n = pooled.size();
    m.tail = tail(pooled);
    w.end_to_end[def.name] = std::move(m);
  }

  // Fixed-seed outcomes: every repetition of a simulation has the same
  // digest, so the first one's values are the workload's.
  const Record& first = reps.front()->record;
  for (const auto& t : kOutcomeTolerances) {
    const std::string name = t.name;
    if (const auto it = w.end_to_end.find(name); it != w.end_to_end.end()) {
      w.outcomes[name] = it->second.value;
    }
  }
  if (w.workload->kind != Kind::kWire) {  // no daemon reads scores
    w.outcomes["lifting.detection"] = first.get("detection");
    w.outcomes["lifting.false_positive"] = first.get("false_positive");
  }

  if (w.traced && w.traced->ok) {
    summarize_layers(w, reps);
    for (const auto& [name, value] : w.per_layer) {
      if (find_metric(name) == nullptr) {
        w.failed += 1;
        w.failures.push_back(name + " is not in BENCHMARK.json");
      }
    }
  }
}

namespace {

/// Per layer: counts from the first repetition (every repetition has the
/// same digest), timings as medians over repetitions, trace counts from
/// the traced repetition, and probe timings from the probes. A layer a
/// workload does not exercise, or that is not visible from outside the
/// program, reads 0.
void summarize_layers(WorkloadResult& w, const std::vector<const Isolated*>& reps) {
  const Kind kind = w.workload->kind;
  const bool sim = kind == Kind::kPaper || kind == Kind::kScale;
  const Record& r = reps.front()->record;
  const Record& t = w.traced->record;
  const Record& p = w.probes;
  auto& L = w.per_layer;
  for (const auto& def : catalogue().per_layer) L[def.name] = 0.0;

  const double node_s = r.get("node_s");
  const auto reg = [&r](const std::string& k) { return r.get("reg." + k); };
  const auto engine = [&](const std::string& k) {
    return kind == Kind::kWire ? r.get("stat." + k) : reg("engine." + k);
  };
  const auto traced_kind = [&t](obs::EventKind k) {
    return t.get(std::string("trace.kind.") + obs::kind_name(k));
  };
  const auto traced_category = [&t](const std::string& category) {
    double total = 0.0;
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
      const auto kind = static_cast<obs::EventKind>(k);
      if (category == obs::kind_category(kind)) {
        total += t.get(std::string("trace.kind.") + obs::kind_name(kind));
      }
    }
    return total;
  };
  // A repetition's value `k`, median over repetitions.
  const auto timed = [&](const char* k) {
    std::vector<double> v;
    for (const auto* rep : reps) v.push_back(rep->record.get(k));
    return median(std::move(v));
  };
  // A repetition's list `k`, pooled over repetitions.
  const auto pooled = [&](const char* k) {
    std::vector<double> out;
    for (const auto* rep : reps) {
      const auto& v = rep->record.all(k);
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  };
  const auto tail_or_max = [](const std::vector<double>& v) {
    const auto tl = tail(v);
    return tl ? tl->value : quantile(v, 1.0);
  };
  const double run_s = timed("run_s");
  const double events = r.get("events");

  if (kind != Kind::kWire) {
    const double sent = reg("net.datagrams_sent");
    const double reliable = reg("net.reliable_sent");
    const auto& pending = r.all("pending");
    L["sim.events"] = events;
    L["sim.events_per_s"] = ratio(events, run_s);
    L["sim.ns_per_event"] = ratio(run_s * 1e9, events);
    L["sim.pending_p50"] = median(pending);
    L["sim.pending_max"] =
        pending.empty() ? 0.0 : *std::max_element(pending.begin(), pending.end());
    L["sim.queue_ns_per_op"] = p.get("queue_ns");
    L["sim.network.datagrams_per_event"] = ratio(sent, events);
    L["sim.network.loss_ratio"] = ratio(reg("net.datagrams_lost"), sent);
    L["sim.network.queue_drop_ratio"] = ratio(reg("net.datagrams_dropped"), sent);
    L["sim.network.reliable_share"] = ratio(reliable, sent + reliable);
    L["sim.network.bytes_per_node_s"] = ratio(reg("net.bytes_sent"), node_s);
    L["sim.network.ns_per_datagram"] = p.get("network_ns");
    L["lifting.audit_channel_retries"] = reg("audit_channel.retries");
    L["membership.churn_events"] =
        reg("churn.joins") + reg("churn.departures") + reg("churn.rejoins");
    L["membership.handoffs"] = reg("handoffs.executed");
    L["runtime.unattributed_share"] =
        1.0 - ratio(events * p.get("queue_ns") +
                        (sent + reliable) * p.get("network_ns"),
                    run_s * 1e9);
    L["obs.records_per_event"] = ratio(t.get("trace.recorded"), t.get("events"));
    L["obs.trace_overhead"] = ratio(t.get("run_s"), run_s) - 1.0;
  } else {
    const double datagrams = r.get("datagrams");
    const double user = timed("cpu_user_s");
    const double sys = timed("cpu_sys_s");
    L["lifting.audit_channel_retries"] = r.get("audit_retries");
    L["net.datagrams_per_node_s"] = ratio(datagrams, node_s);
    L["net.wire_bytes_per_node_s"] = ratio(r.get("wire_bytes"), node_s);
    L["net.cpu_us_per_datagram"] = ratio((user + sys) * 1e6, datagrams);
    L["net.sys_cpu_share"] = ratio(sys, user + sys);
    L["net.transport_errors"] = r.get("transport_errors");
    L["net.codec_ns_per_msg"] = p.get("codec_ns");
    L["obs.records_per_event"] = ratio(t.get("trace.recorded"), t.get("datagrams"));
    L["obs.trace_overhead"] =
        ratio(t.get("cpu_user_s") + t.get("cpu_sys_s"), user + sys) - 1.0;
  }

  L["gossip.chunks_received_per_node_s"] = ratio(engine("chunks_received"), node_s);
  L["gossip.duplicate_serve_ratio"] =
      ratio(engine("duplicate_serves"), engine("chunks_served"));
  L["gossip.requests_per_proposal"] =
      ratio(engine("requests_sent"), engine("proposals_sent"));
  L["gossip.invalid_requests"] = engine("invalid_requests");
  L["gossip.serve_lag_ms_p50"] = t.get("serve_lag_ms_p50");
  L["gossip.serve_lag_ms_p99"] = t.get("serve_lag_ms_p99");

  const double traced_node_s = t.get("node_s");
  L["lifting.verdicts_per_node_s"] = ratio(traced_category("verdict"), traced_node_s);
  L["lifting.blames_per_node_s"] =
      ratio(traced_kind(obs::EventKind::kBlameEmitted), traced_node_s);
  L["lifting.audits_per_node_s"] =
      ratio(traced_kind(obs::EventKind::kAuditReport), traced_node_s);
  L["lifting.score_reads_per_node_s"] =
      ratio(traced_kind(obs::EventKind::kScoreRead), traced_node_s);
  L["lifting.expel_records"] = traced_kind(obs::EventKind::kExpelRequest) +
                               traced_kind(obs::EventKind::kExpelVote) +
                               traced_kind(obs::EventKind::kExpelCommit) +
                               traced_kind(obs::EventKind::kExpulsionApplied);
  const auto counts = kind_counts(r);
  double dissemination = 0.0, verification = 0.0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (k < 3) dissemination += counts[k];
    else if (k < gossip::kAuditKindFirst) verification += counts[k];
  }
  L["lifting.verif_msgs_per_diss_msg"] = ratio(verification, dissemination);
  L["lifting.detection"] = r.get("detection");
  L["lifting.false_positive"] = r.get("false_positive");
  L["membership.rps_merges_per_node_s"] =
      ratio(traced_kind(obs::EventKind::kRpsMerge), traced_node_s);
  L["adversary.ticks_per_node_s"] =
      ratio(traced_kind(obs::EventKind::kAdversaryTick), traced_node_s);
  L["obs.trace_dropped"] = t.get("trace.dropped");

  if (sim) {
    L["runtime.build_s"] = timed("build_s");
    const auto slices = pooled("slice_s");
    L["runtime.run_slice_s_p50"] = median(slices);
    L["runtime.run_slice_s_tail"] = tail_or_max(slices);
    for (const char* phase : {"warmup_s", "health_s", "score_read_s",
                              "collect_metrics_s"}) {
      L[std::string("runtime.") + phase] = timed(phase);
    }
    L["mem.allocs_per_event"] =
        ratio(r.get("window_allocs"), r.get("window_events"));
    std::vector<double> heap;
    for (const auto* rep : reps) {
      heap.push_back(ratio(rep->record.get("heap_high_water"), rep->record.get("nodes")));
    }
    L["mem.heap_bytes_per_node"] = median(std::move(heap));
  } else if (kind == Kind::kSweep) {
    std::vector<double> builds, resets;
    for (const auto* rep : reps) {
      const auto& setups = rep->record.all("m.setup_s");
      const auto& first = rep->record.all("case_first");
      for (std::size_t i = 0; i < setups.size() && i < first.size(); ++i) {
        (first[i] != 0.0 ? builds : resets).push_back(setups[i]);
      }
    }
    const auto runs = pooled("case_run_s");
    L["runtime.build_s"] = median(builds);
    L["runtime.reset_ms_p50"] = median(resets) * 1e3;
    L["runtime.run_slice_s_p50"] = median(runs);
    L["runtime.run_slice_s_tail"] = tail_or_max(runs);
    L["runtime.collect_metrics_s"] = timed("collect_metrics_s");
    std::vector<double> efficiency;
    for (const auto* rep : reps) {
      efficiency.push_back(ratio(rep->record.get("lane_busy_s"),
                                 rep->record.get("lanes") * rep->record.get("batch_s")));
    }
    L["runtime.runner_efficiency"] = median(std::move(efficiency));
    L["mem.allocs_per_event"] = ratio(r.get("batch_allocs"), events);
  }
}

}  // namespace

void print_table(const Header& header,
                 const std::vector<WorkloadResult>& results) {
  std::printf("lifting_bench: seed %llu, --seconds %g%s, nproc %u, %s, %s build"
              " (sanitizer %s)\n",
              static_cast<unsigned long long>(header.seed), header.seconds,
              header.smoke ? ", smoke" : header.trace ? ", traced" : "",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              build_type(), sanitizer_tag());
  for (const auto& w : results) {
    std::printf("\n== %s  (%zu reps, %llu/%llu ops failed)\n", w.workload->name,
                w.reps.size(), static_cast<unsigned long long>(w.failed),
                static_cast<unsigned long long>(w.attempted));
    for (const auto& msg : w.failures) std::printf("   GATE FAILED: %s\n", msg.c_str());
    for (const auto& def : catalogue().end_to_end) {
      const auto it = w.end_to_end.find(def.name);
      if (it == w.end_to_end.end()) continue;
      const auto& m = it->second;
      std::printf("  %-34s %14.6g %-8s n=%zu", def.name.c_str(), m.value,
                  def.unit.c_str(), m.n);
      if (m.tail) std::printf("  p%g=%.6g", m.tail->pct, m.tail->value);
      std::printf("\n");
    }
    for (const auto& [name, value] : w.outcomes) {
      if (w.end_to_end.count(name) == 0) {
        std::printf("  %-34s %14.6g (fixed-seed outcome)\n", name.c_str(), value);
      }
    }
    if (!header.trace) continue;
    for (const auto& [def, value] : reported(w, true)) {
      std::printf("  %-34s %14.6g %s\n", def->name.c_str(), value, def->unit.c_str());
    }
  }
  std::fflush(stdout);
}

std::string result_line(const std::vector<WorkloadResult>& results, bool trace) {
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const auto& w : results) {
    attempted += w.attempted;
    failed += w.failed;
    const std::string prefix =
        results.size() == 1 ? "" : std::string(w.workload->name) + "/";
    for (const auto& [def, value] : reported(w, trace)) {
      if (!metrics.empty()) metrics += ", ";
      metrics += jstr(prefix + def->name) + ": {\"value\": " + jnum(value) +
                 ", \"unit\": " + jstr(def->unit) + "}";
    }
  }
  const bool correct = failed == 0 && attempted > 0;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

bool write_json(const std::string& path, const Header& header,
                const std::vector<WorkloadResult>& results) {
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& w : results) {
    attempted += w.attempted;
    failed += w.failed;
  }
  out << "{\n  \"benchmark\": \"lifting_bench\",\n  \"header\": {"
      << "\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << jstr(cpu_model())
      << ", \"build_type\": " << jstr(build_type())
      << ", \"sanitizer\": " << jstr(sanitizer_tag())
      << ", \"seed\": " << header.seed << ", \"seconds\": " << jnum(header.seconds)
      << ", \"trace\": " << (header.trace ? "true" : "false")
      << ", \"smoke\": " << (header.smoke ? "true" : "false") << "},\n"
      << "  \"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ",\n  \"workloads\": {";
  double t0 = std::numeric_limits<double>::max();
  for (const auto& w : results) {
    for (const auto& s : w.spans) t0 = std::min(t0, s.start_s);
  }
  const auto object = [&out](const std::map<std::string, double>& values) {
    out << "{";
    bool first = true;
    for (const auto& [k, v] : values) {
      out << (first ? "" : ", ") << jstr(k) << ": " << jnum(v);
      first = false;
    }
    out << "}";
  };
  for (std::size_t wi = 0; wi < results.size(); ++wi) {
    const auto& w = results[wi];
    out << (wi ? "," : "") << "\n    " << jstr(w.workload->name) << ": {"
        << "\"reps\": " << w.reps.size() << ", \"attempted\": " << w.attempted << ", \"failed\": " << w.failed
        << ", \"failures\": [";
    for (std::size_t i = 0; i < w.failures.size(); ++i) {
      out << (i ? ", " : "") << jstr(w.failures[i]);
    }
    out << "],\n      \"digest\": ";
    std::map<std::string, double> digest;
    if (!w.reps.empty()) {
      for (const auto& [k, v] : w.reps.front().record.values) {
        if (k.rfind("digest.", 0) == 0 && !v.empty()) digest[k.substr(7)] = v.front();
      }
    }
    object(digest);
    out << ",\n      \"outcomes\": ";
    object(w.outcomes);
    out << ",\n      \"end_to_end\": {";
    bool first = true;
    for (const auto& def : catalogue().end_to_end) {
      const auto it = w.end_to_end.find(def.name);
      if (it == w.end_to_end.end()) continue;
      const auto& m = it->second;
      out << (first ? "" : ",") << "\n        " << jstr(def.name)
          << ": {\"value\": " << jnum(m.value) << ", \"unit\": " << jstr(def.unit)
          << ", \"n\": " << m.n << ", \"per_rep\": [";
      for (std::size_t i = 0; i < m.per_rep.size(); ++i) {
        out << (i ? ", " : "") << jnum(m.per_rep[i]);
      }
      out << "], \"tail_pct\": " << (m.tail ? jnum(m.tail->pct) : "null")
          << ", \"tail\": " << (m.tail ? jnum(m.tail->value) : "null") << "}";
      first = false;
    }
    out << "},\n      \"per_layer\": ";
    object(w.per_layer);
    out << "}";
  }
  // lifting_bench's own spans as Chrome trace "complete" events (loadable in
  // Perfetto / chrome://tracing): pid = workload, tid = runner lane.
  out << "\n  },\n  \"traceEvents\": [";
  bool first = true;
  for (std::size_t wi = 0; wi < results.size(); ++wi) {
    const auto& spans = results[wi].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << (first ? "" : ",") << "\n    {\"name\": " << jstr(s.name)
          << ", \"ph\": \"X\", \"pid\": " << wi << ", \"tid\": " << s.lane
          << ", \"ts\": " << jnum((s.start_s - t0) * 1e6)
          << ", \"dur\": " << jnum((s.end_s - s.start_s) * 1e6)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
      first = false;
    }
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

// ---- --compare

namespace {

std::optional<Json> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return JsonParser(buf.str()).parse();
}

std::vector<double> numbers(const Json* v) {
  std::vector<double> out;
  if (v == nullptr) return out;
  for (const auto& x : v->array) {
    if (x.type == Json::Type::kNumber) out.push_back(x.number);
  }
  return out;
}

}  // namespace

int compare(const std::string& path_a, const std::string& path_b) {
  const auto a = load(path_a);
  const auto b = load(path_b);
  if (!a || !b) {
    std::fprintf(stderr, "lifting_bench --compare: cannot read %s\n",
                 !a ? path_a.c_str() : path_b.c_str());
    return 1;
  }
  const auto describe = [](const Json& j) {
    const Json* h = j.get("header");
    char buf[320];
    std::snprintf(buf, sizeof buf, "seed %.0f, nproc %.0f, %s, %s build",
                  h ? h->num("seed") : 0, h ? h->num("nproc") : 0,
                  h ? h->str("cpu_model").c_str() : "?",
                  h ? h->str("build_type").c_str() : "?");
    return std::string(buf);
  };
  std::printf("A = %s (%s)\nB = %s (%s)\n", path_a.c_str(), describe(*a).c_str(),
              path_b.c_str(), describe(*b).c_str());
  std::printf("%-10s %-24s %14s %14s %9s %9s  %s\n", "workload", "metric",
              "A", "B", "delta", "bound", "verdict");
  const Json* wa = a->get("workloads");
  const Json* wb = b->get("workloads");
  int failing = 0;
  for (const auto& w : workloads()) {
    const Json* xa = wa ? wa->get(w.name) : nullptr;
    const Json* xb = wb ? wb->get(w.name) : nullptr;
    if (xa == nullptr || xb == nullptr) continue;

    // Host timings and memory: medians, bound a share of A's median.
    for (const auto& def : catalogue().end_to_end) {
      if (is_outcome(def.name)) continue;
      const Json* ea = xa->get("end_to_end");
      const Json* eb = xb->get("end_to_end");
      const Json* ma = ea ? ea->get(def.name) : nullptr;
      const Json* mb = eb ? eb->get(def.name) : nullptr;
      if (ma == nullptr || mb == nullptr) continue;
      const double va = ma->num("value");
      const double vb = mb->num("value");
      const double delta = va == 0.0 ? 0.0 : (vb - va) / std::fabs(va);
      const double worse = def.higher_better ? -delta : delta;
      // The run-to-run spread of each side's median, estimated from its
      // repetitions: their IQR over median × 1.25 / √n (a median of n
      // repetitions scatters that much less than one repetition does).
      const auto ra = numbers(ma->get("per_rep"));
      const auto rb = numbers(mb->get("per_rep"));
      const auto run_spread = [](const std::vector<double>& reps) {
        return reps.empty() ? 0.0
                            : iqr_share(reps) * 1.25 /
                                  std::sqrt(static_cast<double>(reps.size()));
      };
      const double spread = std::max(run_spread(ra), run_spread(rb));
      // "unresolved": that spread is wider than the bound, and B's
      // repetitions do not all read better than A's.
      bool b_all_better = !ra.empty() && !rb.empty();
      for (const double x : ra) {
        for (const double y : rb) {
          if (def.higher_better ? y <= x : y >= x) b_all_better = false;
        }
      }
      const char* verdict = "ok";
      if (spread > def.bound && !b_all_better) {
        verdict = "unresolved";
      } else if (worse > def.bound) {
        verdict = "regressed";
        ++failing;
      }
      std::printf("%-10s %-24s %14.6g %14.6g %+8.2f%% %8.1f%%  %s\n", w.name,
                  def.name.c_str(), va, vb, delta * 100.0, def.bound * 100.0,
                  verdict);
    }

    // Fixed-seed outcomes: absolute differences, absolute tolerances.
    const Json* oa = xa->get("outcomes");
    const Json* ob = xb->get("outcomes");
    for (const auto& t : kOutcomeTolerances) {
      const Json* va = oa ? oa->get(t.name) : nullptr;
      const Json* vb = ob ? ob->get(t.name) : nullptr;
      const MetricDef* def = find_metric(t.name);
      if (va == nullptr || vb == nullptr || def == nullptr) continue;
      const double delta = vb->number - va->number;
      const double worse = def->higher_better ? -delta : delta;
      const bool regressed = worse > t.absolute;
      failing += regressed ? 1 : 0;
      std::printf("%-10s %-24s %14.6g %14.6g %+9.4f %9.4f  %s\n", w.name, t.name,
                  va->number, vb->number, delta, t.absolute,
                  regressed ? "regressed" : "ok");
    }

    const Json* da = xa->get("digest");
    const Json* db = xb->get("digest");
    const bool has_digest = da && db && da->get("hash") && db->get("hash");
    const bool same = has_digest && da->num("hash") == db->num("hash");
    failing += has_digest && !same ? 1 : 0;
    std::printf("%-10s %-24s %s\n", w.name, "digest",
                !has_digest ? "n/a (no fixed-seed digest)"
                : same      ? "identical"
                            : "DIFFERENT (fixed-seed behaviour changed)");
    const auto share = [](const Json* x) {
      const double att = x->num("attempted");
      return att == 0.0 ? 0.0 : x->num("failed") / att;
    };
    const bool more_failed = share(xb) > share(xa);
    failing += more_failed ? 1 : 0;
    std::printf("%-10s %-24s A %.0f/%.0f (%.2f%%)  B %.0f/%.0f (%.2f%%)  %s\n",
                w.name, "failed ops", xa->num("failed"), xa->num("attempted"),
                share(xa) * 100.0, xb->num("failed"), xb->num("attempted"),
                share(xb) * 100.0, more_failed ? "regressed" : "ok");
  }
  return failing == 0 ? 0 : 1;
}

}  // namespace lifting::e2e
