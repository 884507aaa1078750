#include "deploy/drift.h"

#include <algorithm>

#include "dpi/profiles.h"
#include "obs/obs.h"

namespace liberate::deploy {

void WaveStats::score(const FlowOutcome& flow, dpi::Environment& env) {
  const bool done = flow.delivered && !flow.reset;
  ++flows;
  if (!done) ++incomplete;
  if (flow.reset) ++blocked;
  if (flow.completed_at && !flow.reset &&
      *flow.completed_at >= flow.started_at) {
    const std::uint64_t lat_us = *flow.completed_at - flow.started_at;
    latency_us_sum += lat_us;
    ++latency_samples;
    LIBERATE_HDR_RECORD("fleet.flow_latency_us", lat_us);
  }
  if (!flow.tuple) return;
  const bool direct =
      env.signal == dpi::Environment::Signal::kDirect && env.dpi != nullptr;
  if (direct ? env.dpi->treats(*flow.tuple, env.loop.now()) : !done) {
    ++differentiated;
  }
}

const char* drift_kind_name(DriftKind kind) {
  switch (kind) {
    case DriftKind::kDifferentiationReappeared:
      return "differentiation-reappeared";
    case DriftKind::kBlockingSurge:
      return "blocking-surge";
    case DriftKind::kCompletionCollapse:
      return "completion-collapse";
  }
  return "unknown";
}

std::optional<DriftKind> DriftMonitor::classify(const WaveStats& wave) const {
  // Ordered by evidence strength: a wave that both blocks and fails to
  // complete is reported as the more specific blocking surge.
  if (wave.differentiated_rate() >
      baseline_.differentiated_rate() + thresholds_.differentiated_slack) {
    return DriftKind::kDifferentiationReappeared;
  }
  if (wave.blocked_rate() >
      baseline_.blocked_rate() + thresholds_.blocked_slack) {
    return DriftKind::kBlockingSurge;
  }
  if (wave.incomplete_rate() >
      baseline_.incomplete_rate() + thresholds_.incomplete_slack) {
    return DriftKind::kCompletionCollapse;
  }
  return std::nullopt;
}

std::optional<DriftSignal> DriftMonitor::observe(const WaveStats& wave,
                                                 bool corroborated) {
  ++waves_observed_;
  if (wave.flows < thresholds_.min_flows) return std::nullopt;

  if (!have_baseline_) {
    baseline_ = wave;
    have_baseline_ = true;
    return std::nullopt;
  }

  auto kind = classify(wave);
  if (!kind) {
    // Hysteresis down: suspicion survives isolated clean waves.
    if (++clean_streak_ >= thresholds_.waves_to_clear) suspect_streak_ = 0;
    return std::nullopt;
  }

  clean_streak_ = 0;
  ++suspect_streak_;
  LIBERATE_COUNTER_ADD("deploy.drift.suspect_waves", 1);
  // A corroborated breach (rate suspect AND the telemetry hub's anomaly
  // detector flagged this wave) needs fewer consecutive suspect waves; the
  // bonus never pushes the requirement below one real rate breach.
  const int need =
      corroborated
          ? std::max(1, thresholds_.waves_to_confirm -
                            thresholds_.corroboration_bonus)
          : thresholds_.waves_to_confirm;
  if (suspect_streak_ < need) return std::nullopt;

  DriftSignal signal;
  signal.kind = *kind;
  signal.corroborated = corroborated;
  signal.wave = waves_observed_ - 1;
  switch (*kind) {
    case DriftKind::kDifferentiationReappeared:
      signal.rate = wave.differentiated_rate();
      signal.baseline = baseline_.differentiated_rate();
      break;
    case DriftKind::kBlockingSurge:
      signal.rate = wave.blocked_rate();
      signal.baseline = baseline_.blocked_rate();
      break;
    case DriftKind::kCompletionCollapse:
      signal.rate = wave.incomplete_rate();
      signal.baseline = baseline_.incomplete_rate();
      break;
  }
  signal.suspect_waves = suspect_streak_;
  suspect_streak_ = 0;  // one signal per confirmation
  LIBERATE_COUNTER_ADD("deploy.drift.signals", 1);
  return signal;
}

}  // namespace liberate::deploy
