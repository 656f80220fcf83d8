#include <gtest/gtest.h>

#include "runtime/wire_scenario.hpp"

namespace lifting::runtime {
namespace {

/// The serialized subset must round-trip exactly: every field the wire
/// deployment consumes compares equal after encode -> decode.
void expect_roundtrip(const ScenarioConfig& config) {
  const auto text = encode_wire_scenario(config);
  std::string error;
  const auto out = decode_wire_scenario(text, &error);
  ASSERT_TRUE(out.has_value()) << error << "\n" << text;

  EXPECT_EQ(out->nodes, config.nodes);
  EXPECT_EQ(out->seed, config.seed);
  EXPECT_EQ(out->duration, config.duration);
  EXPECT_EQ(out->lifting_enabled, config.lifting_enabled);
  EXPECT_EQ(out->gossip.fanout, config.gossip.fanout);
  EXPECT_EQ(out->gossip.period, config.gossip.period);
  EXPECT_EQ(out->gossip.request_timeout, config.gossip.request_timeout);
  EXPECT_EQ(out->gossip.proposal_retention_periods,
            config.gossip.proposal_retention_periods);
  EXPECT_EQ(out->gossip.max_request_per_proposal,
            config.gossip.max_request_per_proposal);
  EXPECT_EQ(out->stream.bitrate_bps, config.stream.bitrate_bps);
  EXPECT_EQ(out->stream.chunk_payload_bytes, config.stream.chunk_payload_bytes);
  EXPECT_EQ(out->stream.duration, config.stream.duration);
  EXPECT_DOUBLE_EQ(out->freerider_fraction, config.freerider_fraction);
  EXPECT_DOUBLE_EQ(out->freerider_behavior.delta_fanout,
                   config.freerider_behavior.delta_fanout);
  EXPECT_DOUBLE_EQ(out->freerider_behavior.delta_propose,
                   config.freerider_behavior.delta_propose);
  EXPECT_DOUBLE_EQ(out->freerider_behavior.delta_serve,
                   config.freerider_behavior.delta_serve);
  EXPECT_DOUBLE_EQ(out->freerider_behavior.period_stretch,
                   config.freerider_behavior.period_stretch);
  EXPECT_EQ(out->freerider_behavior.lie_in_history,
            config.freerider_behavior.lie_in_history);
  // LiFTinG parameters (spot-check the ones with awkward encodings:
  // durations, doubles that need round-trip precision, the vote pair).
  EXPECT_EQ(out->lifting.managers, config.lifting.managers);
  EXPECT_EQ(out->lifting.history_window, config.lifting.history_window);
  EXPECT_EQ(out->lifting.audit_poll_timeout,
            config.lifting.audit_poll_timeout);
  EXPECT_DOUBLE_EQ(out->lifting.eta, config.lifting.eta);
  EXPECT_DOUBLE_EQ(out->lifting.gamma, config.lifting.gamma);
  EXPECT_DOUBLE_EQ(out->lifting.p_dcc, config.lifting.p_dcc);
  EXPECT_DOUBLE_EQ(out->lifting.loss_estimate, config.lifting.loss_estimate);
  EXPECT_EQ(out->lifting.score_vote, config.lifting.score_vote);

  // Byte-identical re-encoding is the strongest round-trip guarantee the
  // deployment relies on (launcher and daemon agree on every derived seed).
  EXPECT_EQ(encode_wire_scenario(*out), text);
}

TEST(WireScenario, SmallPresetRoundTrips) {
  expect_roundtrip(ScenarioConfig::small(16));
}

TEST(WireScenario, PlanetlabPresetRoundTrips) {
  expect_roundtrip(ScenarioConfig::planetlab());
}

TEST(WireScenario, FreeriderScenarioRoundTrips) {
  auto config = ScenarioConfig::small(32);
  config.seed = 0xDEADBEEF;
  config.freerider_fraction = 0.25;
  config.freerider_behavior = gossip::BehaviorSpec::freerider(0.3);
  expect_roundtrip(config);
}

TEST(WireScenario, DecoderRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(decode_wire_scenario("no_such_key 1\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(decode_wire_scenario("nodes\n", &error).has_value());
  EXPECT_FALSE(decode_wire_scenario("nodes banana\n", &error).has_value());
  // Comments and blank lines are fine.
  const auto text = encode_wire_scenario(ScenarioConfig::small(8));
  EXPECT_TRUE(
      decode_wire_scenario("# comment\n\n" + text, &error).has_value());
}

TEST(WireScenario, UnsupportedFeaturesAreNamed) {
  std::string why;

  auto timeline = ScenarioConfig::small(16);
  timeline.timeline.leave_at(seconds(1.0), NodeId{1});
  EXPECT_FALSE(wire_supported(timeline, &why));
  EXPECT_NE(why.find("timeline"), std::string::npos) << why;

  auto expel = ScenarioConfig::small(16);
  expel.expulsion_enabled = true;
  EXPECT_FALSE(wire_supported(expel, &why));

  // No membership.* key crosses the wire encoding and NodeHost builds no
  // RPS, so accepting this would run directory sampling under an RPS label.
  auto rps = ScenarioConfig::small(16);
  rps.membership.rps_partner_sampling = true;
  EXPECT_FALSE(wire_supported(rps, &why));
  EXPECT_NE(why.find("RPS"), std::string::npos) << why;

  auto tiny = ScenarioConfig::small(16);
  tiny.nodes = 1;
  EXPECT_FALSE(wire_supported(tiny, &why));

  EXPECT_TRUE(wire_supported(ScenarioConfig::small(16), &why)) << why;
  EXPECT_TRUE(wire_supported(ScenarioConfig::planetlab(), &why)) << why;
}

}  // namespace
}  // namespace lifting::runtime
