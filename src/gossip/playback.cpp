#include "gossip/playback.hpp"

#include "common/assert.hpp"

namespace lifting::gossip {

std::vector<HealthPoint> health_curve(
    const std::vector<ChunkMeta>& emitted,
    const std::vector<const DeliveryLog*>& node_deliveries,
    TimePoint measurement_end, const std::vector<double>& lags_seconds,
    const PlaybackConfig& config) {
  std::vector<HealthPoint> curve;
  curve.reserve(lags_seconds.size());
  const TimePoint warmup_end = kSimEpoch + config.warmup;

  // A chunk is judgeable at a lag if it was emitted after warmup and its
  // deadline (emit + lag) falls within the measured window. With a
  // common_window_lag the deadline cutoff — and therefore the eligible
  // set — is shared by every lag and computed once.
  const bool common_window = config.common_window_lag > 0.0;
  std::vector<const ChunkMeta*> eligible;
  auto collect_eligible = [&](Duration window_lag) {
    eligible.clear();
    for (const auto& chunk : emitted) {
      if (chunk.emitted_at < warmup_end) continue;
      if (chunk.emitted_at + window_lag > measurement_end) continue;
      eligible.push_back(&chunk);
    }
  };
  if (common_window) collect_eligible(seconds(config.common_window_lag));

  for (const double lag_s : lags_seconds) {
    const Duration lag = seconds(lag_s);
    if (!common_window) collect_eligible(lag);
    if (eligible.empty()) {
      curve.push_back(HealthPoint{lag_s, 0.0});
      continue;
    }
    std::size_t clear_nodes = 0;
    for (const auto* deliveries : node_deliveries) {
      std::size_t on_time = 0;
      for (const auto* chunk : eligible) {
        const auto at = deliveries->find(chunk->id);
        if (at && *at <= chunk->emitted_at + lag) {
          ++on_time;
        }
      }
      const double frac = static_cast<double>(on_time) /
                          static_cast<double>(eligible.size());
      if (frac >= config.clear_threshold) ++clear_nodes;
    }
    curve.push_back(HealthPoint{
        lag_s, node_deliveries.empty()
                   ? 0.0
                   : static_cast<double>(clear_nodes) /
                         static_cast<double>(node_deliveries.size())});
  }
  return curve;
}

double mean_delivery_lag(const std::vector<ChunkMeta>& emitted,
                         const DeliveryLog& deliveries) {
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& chunk : emitted) {
    const auto at = deliveries.find(chunk.id);
    if (!at) continue;
    total += to_seconds(*at - chunk.emitted_at);
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace lifting::gossip
