#include "runtime/wire_scenario.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

namespace lifting::runtime {

namespace {

void put_u64(std::string& out, std::string_view key, std::uint64_t v) {
  out.append(key);
  out.push_back(' ');
  out.append(std::to_string(v));
  out.push_back('\n');
}

void put_f64(std::string& out, std::string_view key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out.append(key);
  out.push_back(' ');
  out.append(buf);
  out.push_back('\n');
}

void put_duration(std::string& out, std::string_view key, Duration d) {
  put_u64(out, key, static_cast<std::uint64_t>(d.count()));
}

struct Parser {
  std::string_view key;
  std::string_view value;
  bool matched = false;
  bool failed = false;

  bool want(std::string_view name) {
    if (matched || failed || key != name) return false;
    matched = true;
    return true;
  }

  template <typename T>
  void u(std::string_view name, T& field) {
    if (!want(name)) return;
    char* end = nullptr;
    const std::string tmp(value);
    const auto v = std::strtoull(tmp.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      failed = true;
      return;
    }
    field = static_cast<T>(v);
  }

  void f(std::string_view name, double& field) {
    if (!want(name)) return;
    char* end = nullptr;
    const std::string tmp(value);
    const double v = std::strtod(tmp.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      failed = true;
      return;
    }
    field = v;
  }

  void b(std::string_view name, bool& field) {
    if (!want(name)) return;
    if (value == "0") {
      field = false;
    } else if (value == "1") {
      field = true;
    } else {
      failed = true;
    }
  }

  void dur(std::string_view name, Duration& field) {
    std::uint64_t us = 0;
    const bool was_matched = matched;
    u(name, us);
    if (matched && !was_matched && !failed) {
      field = Duration{static_cast<Duration::rep>(us)};
    }
  }
};

/// Indexed partition-window keys (`faults.partition.N.field`): the Parser
/// matches fixed names, so the prefix and index are peeled off by hand and
/// the remainder dispatches through the usual matchers. Windows are
/// resized on demand, so entry order relative to the `faults.partitions`
/// count key cannot matter.
void parse_partition_field(Parser& p, ScenarioConfig& cfg) {
  constexpr std::string_view kPrefix = "faults.partition.";
  if (p.matched || p.failed || p.key.substr(0, kPrefix.size()) != kPrefix) {
    return;
  }
  const std::string_view rest = p.key.substr(kPrefix.size());
  const auto dot = rest.find('.');
  if (dot == std::string_view::npos || dot == 0) return;  // unknown key
  std::size_t index = 0;
  for (const char c : rest.substr(0, dot)) {
    if (c < '0' || c > '9') return;  // unknown key
    index = index * 10 + static_cast<std::size_t>(c - '0');
    if (index > 4096) {  // scenario files are human-scale; cap the resize
      p.failed = true;
      return;
    }
  }
  auto& windows = cfg.faults.partitions;
  if (index >= windows.size()) windows.resize(index + 1);
  auto& w = windows[index];
  p.key = rest.substr(dot + 1);
  p.dur("start_us", w.start);
  p.dur("end_us", w.end);
  p.u("modulus", w.modulus);
  p.u("remainder", w.remainder);
  p.b("drop_island_to_main", w.drop_island_to_main);
  p.b("drop_main_to_island", w.drop_main_to_island);
}

/// One field table walked by both encode (via put_*) and decode (via
/// Parser) would be nicer, but the two sides differ enough (string
/// building vs error handling) that the duplication below is the simpler
/// honest version; decode_wire_scenario's round-trip test pins that the
/// two lists agree.
void parse_field(Parser& p, ScenarioConfig& cfg) {
  p.u("nodes", cfg.nodes);
  p.u("seed", cfg.seed);
  p.dur("duration_us", cfg.duration);

  p.u("gossip.fanout", cfg.gossip.fanout);
  p.dur("gossip.period_us", cfg.gossip.period);
  p.dur("gossip.request_timeout_us", cfg.gossip.request_timeout);
  p.u("gossip.proposal_retention_periods",
      cfg.gossip.proposal_retention_periods);
  p.u("gossip.max_request_per_proposal", cfg.gossip.max_request_per_proposal);

  p.f("stream.bitrate_bps", cfg.stream.bitrate_bps);
  p.u("stream.chunk_payload_bytes", cfg.stream.chunk_payload_bytes);
  p.dur("stream.duration_us", cfg.stream.duration);

  p.b("lifting_enabled", cfg.lifting_enabled);
  p.u("lifting.fanout", cfg.lifting.fanout);
  p.dur("lifting.period_us", cfg.lifting.period);
  p.u("lifting.nominal_request_size", cfg.lifting.nominal_request_size);
  p.f("lifting.p_dcc", cfg.lifting.p_dcc);
  p.f("lifting.loss_estimate", cfg.lifting.loss_estimate);
  p.f("lifting.compensation_factor", cfg.lifting.compensation_factor);
  p.dur("lifting.dv_timeout_us", cfg.lifting.dv_timeout);
  p.dur("lifting.ack_timeout_us", cfg.lifting.ack_timeout);
  p.dur("lifting.confirm_timeout_us", cfg.lifting.confirm_timeout);
  p.b("lifting.adaptive_pdcc", cfg.lifting.adaptive_pdcc);
  p.f("lifting.adaptive_min_pdcc", cfg.lifting.adaptive_min_pdcc);
  p.f("lifting.adaptive_decay", cfg.lifting.adaptive_decay);
  p.f("lifting.adaptive_noise_multiple", cfg.lifting.adaptive_noise_multiple);
  p.u("lifting.managers", cfg.lifting.managers);
  p.f("lifting.eta", cfg.lifting.eta);
  if (p.want("lifting.score_vote")) {
    if (p.value == "min") {
      cfg.lifting.score_vote = LiftingParams::ScoreVote::kMin;
    } else if (p.value == "mean") {
      cfg.lifting.score_vote = LiftingParams::ScoreVote::kMean;
    } else {
      p.failed = true;
    }
  }
  p.f("lifting.expel_slack", cfg.lifting.expel_slack);
  p.u("lifting.min_score_replies", cfg.lifting.min_score_replies);
  p.dur("lifting.score_reply_timeout_us", cfg.lifting.score_reply_timeout);
  p.dur("lifting.expel_vote_timeout_us", cfg.lifting.expel_vote_timeout);
  p.f("lifting.score_check_probability",
      cfg.lifting.score_check_probability);
  p.u("lifting.min_periods_before_detection",
      cfg.lifting.min_periods_before_detection);
  p.f("lifting.gamma", cfg.lifting.gamma);
  p.dur("lifting.history_window_us", cfg.lifting.history_window);
  p.f("lifting.audit_probability", cfg.lifting.audit_probability);
  p.u("lifting.audit_warmup_periods", cfg.lifting.audit_warmup_periods);
  p.dur("lifting.audit_poll_timeout_us", cfg.lifting.audit_poll_timeout);
  p.u("lifting.min_fanin_samples", cfg.lifting.min_fanin_samples);
  p.f("lifting.rate_tolerance", cfg.lifting.rate_tolerance);
  p.dur("lifting.history_retention_us", cfg.lifting.history_retention);
  if (p.want("lifting.audit_channel")) {
    if (p.value == "modeled_tcp") {
      cfg.lifting.audit_channel = LiftingParams::AuditChannel::kModeledTcp;
    } else if (p.value == "reliable_udp") {
      cfg.lifting.audit_channel = LiftingParams::AuditChannel::kReliableUdp;
    } else {
      p.failed = true;
    }
  }
  p.u("lifting.audit_max_retries", cfg.lifting.audit_max_retries);
  p.dur("lifting.audit_retry_base_us", cfg.lifting.audit_retry_base);
  p.f("lifting.audit_retry_jitter", cfg.lifting.audit_retry_jitter);
  p.u("lifting.audit_dedup_cap", cfg.lifting.audit_dedup_cap);
  p.dur("lifting.blame_dedup_window_us", cfg.lifting.blame_dedup_window);

  p.f("faults.p_good_to_bad", cfg.faults.p_good_to_bad);
  p.f("faults.p_bad_to_good", cfg.faults.p_bad_to_good);
  p.f("faults.loss_good", cfg.faults.loss_good);
  p.f("faults.loss_bad", cfg.faults.loss_bad);
  p.f("faults.delay_spike_probability", cfg.faults.delay_spike_probability);
  p.dur("faults.delay_spike_min_us", cfg.faults.delay_spike_min);
  p.dur("faults.delay_spike_max_us", cfg.faults.delay_spike_max);
  p.f("faults.duplicate_probability", cfg.faults.duplicate_probability);
  p.f("faults.reorder_probability", cfg.faults.reorder_probability);
  p.dur("faults.reorder_delay_us", cfg.faults.reorder_delay);
  if (p.want("faults.partitions")) {
    char* end = nullptr;
    const std::string tmp(p.value);
    const auto v = std::strtoull(tmp.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v > 4096) {
      p.failed = true;
    } else {
      cfg.faults.partitions.resize(static_cast<std::size_t>(v));
    }
  }
  parse_partition_field(p, cfg);

  p.f("freerider_fraction", cfg.freerider_fraction);
  p.f("behavior.delta_fanout", cfg.freerider_behavior.delta_fanout);
  p.f("behavior.delta_propose", cfg.freerider_behavior.delta_propose);
  p.f("behavior.delta_serve", cfg.freerider_behavior.delta_serve);
  p.f("behavior.period_stretch", cfg.freerider_behavior.period_stretch);
  p.b("behavior.lie_in_history", cfg.freerider_behavior.lie_in_history);
}

}  // namespace

bool wire_supported(const ScenarioConfig& config, std::string* why) {
  const auto unsupported = [&](const char* what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (config.nodes < 2) return unsupported("need at least 2 nodes");
  if (!config.timeline.empty()) {
    return unsupported("timeline events (churn) are simulator-only");
  }
  if (config.adversary.enabled()) {
    return unsupported("adaptive adversary controllers are simulator-only");
  }
  if (config.expulsion_enabled) {
    return unsupported("expulsion propagation is simulator-only");
  }
  if (config.view_propagation != Duration::zero()) {
    return unsupported("divergent membership views are simulator-only");
  }
  if (config.membership.rps_partner_sampling) {
    return unsupported("RPS partner sampling is simulator-only");
  }
  // weak_fraction is NOT rejected: weak nodes differ only by link profile,
  // and link profiles are simulator-only (the wire has its own physics) —
  // on the wire a "weak" node is just a node.
  if (config.freerider_behavior.collusion.has_value()) {
    return unsupported("collusion is simulator-only");
  }
  return true;
}

std::string encode_wire_scenario(const ScenarioConfig& config) {
  std::string out;
  out.reserve(2048);
  out.append("# lifting wire scenario\n");
  put_u64(out, "nodes", config.nodes);
  put_u64(out, "seed", config.seed);
  put_duration(out, "duration_us", config.duration);

  put_u64(out, "gossip.fanout", config.gossip.fanout);
  put_duration(out, "gossip.period_us", config.gossip.period);
  put_duration(out, "gossip.request_timeout_us", config.gossip.request_timeout);
  put_u64(out, "gossip.proposal_retention_periods",
          config.gossip.proposal_retention_periods);
  put_u64(out, "gossip.max_request_per_proposal",
          config.gossip.max_request_per_proposal);

  put_f64(out, "stream.bitrate_bps", config.stream.bitrate_bps);
  put_u64(out, "stream.chunk_payload_bytes", config.stream.chunk_payload_bytes);
  put_duration(out, "stream.duration_us", config.stream.duration);

  put_u64(out, "lifting_enabled", config.lifting_enabled ? 1 : 0);
  const auto& lp = config.lifting;
  put_u64(out, "lifting.fanout", lp.fanout);
  put_duration(out, "lifting.period_us", lp.period);
  put_u64(out, "lifting.nominal_request_size", lp.nominal_request_size);
  put_f64(out, "lifting.p_dcc", lp.p_dcc);
  put_f64(out, "lifting.loss_estimate", lp.loss_estimate);
  put_f64(out, "lifting.compensation_factor", lp.compensation_factor);
  put_duration(out, "lifting.dv_timeout_us", lp.dv_timeout);
  put_duration(out, "lifting.ack_timeout_us", lp.ack_timeout);
  put_duration(out, "lifting.confirm_timeout_us", lp.confirm_timeout);
  put_u64(out, "lifting.adaptive_pdcc", lp.adaptive_pdcc ? 1 : 0);
  put_f64(out, "lifting.adaptive_min_pdcc", lp.adaptive_min_pdcc);
  put_f64(out, "lifting.adaptive_decay", lp.adaptive_decay);
  put_f64(out, "lifting.adaptive_noise_multiple", lp.adaptive_noise_multiple);
  put_u64(out, "lifting.managers", lp.managers);
  put_f64(out, "lifting.eta", lp.eta);
  out.append("lifting.score_vote ");
  out.append(lp.score_vote == LiftingParams::ScoreVote::kMin ? "min" : "mean");
  out.push_back('\n');
  put_f64(out, "lifting.expel_slack", lp.expel_slack);
  put_u64(out, "lifting.min_score_replies", lp.min_score_replies);
  put_duration(out, "lifting.score_reply_timeout_us", lp.score_reply_timeout);
  put_duration(out, "lifting.expel_vote_timeout_us", lp.expel_vote_timeout);
  put_f64(out, "lifting.score_check_probability", lp.score_check_probability);
  put_u64(out, "lifting.min_periods_before_detection",
          lp.min_periods_before_detection);
  put_f64(out, "lifting.gamma", lp.gamma);
  put_duration(out, "lifting.history_window_us", lp.history_window);
  put_f64(out, "lifting.audit_probability", lp.audit_probability);
  put_u64(out, "lifting.audit_warmup_periods", lp.audit_warmup_periods);
  put_duration(out, "lifting.audit_poll_timeout_us", lp.audit_poll_timeout);
  put_u64(out, "lifting.min_fanin_samples", lp.min_fanin_samples);
  put_f64(out, "lifting.rate_tolerance", lp.rate_tolerance);
  put_duration(out, "lifting.history_retention_us", lp.history_retention);
  out.append("lifting.audit_channel ");
  out.append(lp.audit_channel == LiftingParams::AuditChannel::kReliableUdp
                 ? "reliable_udp"
                 : "modeled_tcp");
  out.push_back('\n');
  put_u64(out, "lifting.audit_max_retries", lp.audit_max_retries);
  put_duration(out, "lifting.audit_retry_base_us", lp.audit_retry_base);
  put_f64(out, "lifting.audit_retry_jitter", lp.audit_retry_jitter);
  put_u64(out, "lifting.audit_dedup_cap", lp.audit_dedup_cap);
  put_duration(out, "lifting.blame_dedup_window_us", lp.blame_dedup_window);

  const auto& fp = config.faults;
  put_f64(out, "faults.p_good_to_bad", fp.p_good_to_bad);
  put_f64(out, "faults.p_bad_to_good", fp.p_bad_to_good);
  put_f64(out, "faults.loss_good", fp.loss_good);
  put_f64(out, "faults.loss_bad", fp.loss_bad);
  put_f64(out, "faults.delay_spike_probability", fp.delay_spike_probability);
  put_duration(out, "faults.delay_spike_min_us", fp.delay_spike_min);
  put_duration(out, "faults.delay_spike_max_us", fp.delay_spike_max);
  put_f64(out, "faults.duplicate_probability", fp.duplicate_probability);
  put_f64(out, "faults.reorder_probability", fp.reorder_probability);
  put_duration(out, "faults.reorder_delay_us", fp.reorder_delay);
  put_u64(out, "faults.partitions", fp.partitions.size());
  for (std::size_t i = 0; i < fp.partitions.size(); ++i) {
    const auto& w = fp.partitions[i];
    const std::string prefix = "faults.partition." + std::to_string(i) + ".";
    put_duration(out, prefix + "start_us", w.start);
    put_duration(out, prefix + "end_us", w.end);
    put_u64(out, prefix + "modulus", w.modulus);
    put_u64(out, prefix + "remainder", w.remainder);
    put_u64(out, prefix + "drop_island_to_main", w.drop_island_to_main ? 1 : 0);
    put_u64(out, prefix + "drop_main_to_island", w.drop_main_to_island ? 1 : 0);
  }

  put_f64(out, "freerider_fraction", config.freerider_fraction);
  const auto& fb = config.freerider_behavior;
  put_f64(out, "behavior.delta_fanout", fb.delta_fanout);
  put_f64(out, "behavior.delta_propose", fb.delta_propose);
  put_f64(out, "behavior.delta_serve", fb.delta_serve);
  put_f64(out, "behavior.period_stretch", fb.period_stretch);
  put_u64(out, "behavior.lie_in_history", fb.lie_in_history ? 1 : 0);
  return out;
}

std::optional<ScenarioConfig> decode_wire_scenario(const std::string& text,
                                                   std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  ScenarioConfig cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      return fail("malformed line: " + line);
    }
    Parser p;
    p.key = std::string_view(line).substr(0, space);
    p.value = std::string_view(line).substr(space + 1);
    parse_field(p, cfg);
    if (p.failed) return fail("bad value: " + line);
    if (!p.matched) return fail("unknown key: " + line);
  }
  return cfg;
}

}  // namespace lifting::runtime
