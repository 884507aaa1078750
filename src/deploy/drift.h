// drift.h — detecting classifier drift on deployed fleets.
//
// A deployment is only as good as its last characterization: classifiers
// get updated, rules move to other fields, middleboxes learn (related work:
// DPI deployments are heterogeneous and adaptive). The DriftMonitor samples
// each wave's observed treatment — differentiation rate, blocking rate,
// completion rate — against the baseline recorded at deploy time and raises
// a typed DriftSignal when treatment degrades. Hysteresis (consecutive
// suspect waves to confirm, consecutive clean waves to clear) keeps
// transient chaos — a FaultyLink loss burst, one unlucky wave — from
// triggering a false re-analysis, which costs real probe rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "netsim/packet.h"

namespace liberate::dpi {
struct Environment;
}

namespace liberate::deploy {

/// What one flow showed by the end of its wave.
struct FlowOutcome {
  /// The flow's tuple; empty when it never opened a connection.
  std::optional<netsim::FiveTuple> tuple;
  bool reset = false;      // the client saw an RST
  bool delivered = false;  // every expected byte arrived
  std::uint64_t started_at = 0;  // sim-clock microseconds
  std::optional<std::uint64_t> completed_at;
};

/// Per-wave observed treatment, merged across shards.
struct WaveStats {
  std::size_t flows = 0;
  std::size_t differentiated = 0;  // policy observed on the flow
  std::size_t blocked = 0;         // RST/403 terminated
  std::size_t incomplete = 0;      // response not fully delivered
  /// Flow completion latency (first SYN to full response), summed over the
  /// flows that completed cleanly — sim-clock microseconds, tracked
  /// unconditionally so latency-derived telemetry is identical at every
  /// obs level.
  std::uint64_t latency_us_sum = 0;
  std::size_t latency_samples = 0;

  // Rates read 0, never NaN, when nothing was counted (a shard can admit
  // zero flows in a wave).
  double differentiated_rate() const { return ratio(differentiated, flows); }
  double blocked_rate() const { return ratio(blocked, flows); }
  double incomplete_rate() const { return ratio(incomplete, flows); }
  double mean_latency_us() const {
    return ratio(latency_us_sum, latency_samples);
  }
  static double ratio(std::uint64_t n, std::uint64_t d) {
    return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
  }

  /// Score one flow, in either flow mode. Differentiated is the direct
  /// signal when `env` has one (DpiMiddlebox::treats, as ReplayRunner
  /// scores rounds), else the wire evidence of an incomplete flow; a flow
  /// that never opened is never differentiated.
  void score(const FlowOutcome& flow, dpi::Environment& env);

  WaveStats& operator+=(const WaveStats& o) {
    flows += o.flows;
    differentiated += o.differentiated;
    blocked += o.blocked;
    incomplete += o.incomplete;
    latency_us_sum += o.latency_us_sum;
    latency_samples += o.latency_samples;
    return *this;
  }
};

enum class DriftKind {
  /// Differentiation reappeared on deployed flows: the classifier matches
  /// again despite the evasion — the strongest drift evidence.
  kDifferentiationReappeared,
  /// Blocking verdicts surged past baseline (RST/403 treatments).
  kBlockingSurge,
  /// Flows stopped completing (without explicit blocking) — e.g. a
  /// middlebox silently dropping the mutated packets.
  kCompletionCollapse,
};

const char* drift_kind_name(DriftKind kind);

struct DriftThresholds {
  /// How far above the deploy-time baseline each rate must sit before a
  /// wave counts as suspect. Slack absorbs the noise floor: under an
  /// adversarial FaultyLink some flows lose their mutated packets and get
  /// classified even while the technique works.
  double differentiated_slack = 0.20;
  double blocked_slack = 0.25;
  double incomplete_slack = 0.40;
  /// Consecutive suspect waves before a signal fires (hysteresis up).
  int waves_to_confirm = 2;
  /// How many confirmation waves an anomaly corroboration is worth: when
  /// the telemetry hub's detector (obs/anomaly.h) independently flags the
  /// wave, the threshold drops to max(1, waves_to_confirm - bonus). A
  /// corroborated breach confirms faster; an anomaly without a rate breach
  /// never counts at all (classify() must still name a DriftKind).
  int corroboration_bonus = 1;
  /// Consecutive clean waves before accumulated suspicion resets
  /// (hysteresis down: one clean wave amid a real drift must not restart
  /// the confirmation count).
  int waves_to_clear = 2;
  /// Waves smaller than this are ignored entirely (no statistical power).
  std::size_t min_flows = 8;
};

struct DriftSignal {
  DriftKind kind = DriftKind::kDifferentiationReappeared;
  std::size_t wave = 0;   // wave index that confirmed the drift
  double rate = 0;        // offending rate in that wave
  double baseline = 0;    // deploy-time baseline of the same rate
  int suspect_waves = 0;  // consecutive suspect waves at confirmation
  /// True when an anomaly corroboration shortened the confirmation.
  bool corroborated = false;
};

/// Feed one merged WaveStats per wave; fires at most one signal per
/// confirmation (then resets its streak — the control plane re-baselines
/// via rebaseline() after re-deploying).
class DriftMonitor {
 public:
  explicit DriftMonitor(DriftThresholds thresholds = {})
      : thresholds_(thresholds) {}

  /// The first adequately-sized wave after construction (or rebaseline())
  /// becomes the baseline; subsequent waves are judged against it.
  /// `corroborated` marks waves the telemetry hub's anomaly detector
  /// independently flagged: a corroborated rate breach needs fewer
  /// consecutive suspect waves to confirm (corroboration_bonus), but
  /// corroboration without a rate breach does nothing — the hub can speed
  /// up confirmation, never cause one.
  std::optional<DriftSignal> observe(const WaveStats& wave,
                                     bool corroborated = false);

  /// Forget the baseline (after re-deployment the treatment profile of the
  /// new technique becomes the new normal).
  void rebaseline() {
    have_baseline_ = false;
    suspect_streak_ = 0;
    clean_streak_ = 0;
  }

  bool has_baseline() const { return have_baseline_; }
  const WaveStats& baseline() const { return baseline_; }
  int suspect_streak() const { return suspect_streak_; }

 private:
  std::optional<DriftKind> classify(const WaveStats& wave) const;

  DriftThresholds thresholds_;
  WaveStats baseline_;
  bool have_baseline_ = false;
  int suspect_streak_ = 0;
  int clean_streak_ = 0;
  std::size_t waves_observed_ = 0;
};

}  // namespace liberate::deploy
