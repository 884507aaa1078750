// liberate_top — a live per-shard fleet dashboard over the telemetry hub.
//
// Runs a fleet soak with an adversarial path and a scripted mid-soak
// classifier countermeasure, and renders a "TOP"-prefixed dashboard from
// the FleetEngine's on_wave hook after every wave: per-shard verdict mix
// and latency, a sparkline of each shard's differentiation-rate series
// (obs/timeseries.h), HDR latency quantiles (obs/hdr_histogram.h), and the
// anomaly flags that corroborate the drift monitor.
//
// Everything is driven by the simulated clock, so TOP output is
// deterministic for a given build. The FLEET summary printed at the end is
// additionally byte-identical across observability levels and worker
// counts — CI diffs it between an obs-level-0 and an obs-level-2 build.
//
// `--once` suppresses the per-wave TTY loop (one end-of-soak snapshot);
// `--once --json` emits a single machine-readable JSON document instead of
// any text — the form CI smoke-tests and scripts consume.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "deploy/fleet.h"
#include "dpi/normalizer.h"
#include "obs/level.h"
#include "trace/generators.h"
#include "util/json.h"

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
#include "obs/metrics.h"
#include "obs/timeseries.h"
#endif

using namespace liberate;
using namespace liberate::deploy;

namespace {

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
/// Eight-level sparkline over one series' ring (oldest left), scaled to
/// [0, max] so a flat-zero series renders as a flat floor.
std::string sparkline(const std::string& name, int shard) {
  static const char* kBars[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  const obs::TimeSeriesSnapshot snap =
      obs::TimeSeriesStore::instance().snapshot(name);
  for (const obs::SeriesSnapshot& s : snap.series) {
    if (s.key.name != name || s.key.shard != shard) continue;
    double hi = 0;
    for (const obs::SeriesPoint& p : s.points) hi = std::max(hi, p.value);
    std::string out;
    for (const obs::SeriesPoint& p : s.points) {
      const double norm = hi > 0 ? p.value / hi : 0.0;
      int level = static_cast<int>(norm * 7.0 + 0.5);
      if (level < 0) level = 0;
      if (level > 7) level = 7;
      out += kBars[level];
    }
    return out;
  }
  return "";
}
#endif

void render_wave(const FleetWaveReport& w) {
  std::printf("TOP wave=%zu state=%s technique=%s flows=%zu lat_us=%.0f\n",
              w.wave, deploy_state_name(w.state_after),
              w.technique_after.empty() ? "(none)" : w.technique_after.c_str(),
              w.stats.flows, w.stats.mean_latency_us());
  for (std::size_t i = 0; i < w.shard_stats.size(); ++i) {
    const WaveStats& s = w.shard_stats[i];
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
    const std::string spark = sparkline("fleet.diff_rate", static_cast<int>(i));
#else
    const std::string spark = "(obs off)";
#endif
    std::printf(
        "TOP   shard=%zu diff=%.3f blocked=%.3f incomplete=%.3f lat_us=%.0f "
        "%s\n",
        i, s.differentiated_rate(), s.blocked_rate(), s.incomplete_rate(),
        s.mean_latency_us(), spark.c_str());
  }
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
  const obs::HdrSnapshot lat =
      obs::MetricsRegistry::instance().hdr("fleet.flow_latency_us").snapshot();
  if (lat.count > 0) {
    std::printf("TOP   latency p50=%llu p90=%llu p99=%llu max=%llu n=%llu\n",
                static_cast<unsigned long long>(lat.value_at_quantile(0.5)),
                static_cast<unsigned long long>(lat.value_at_quantile(0.9)),
                static_cast<unsigned long long>(lat.value_at_quantile(0.99)),
                static_cast<unsigned long long>(lat.max),
                static_cast<unsigned long long>(lat.count));
  }
#endif
  if (!w.anomalies.empty()) {
    std::string joined;
    for (std::size_t i = 0; i < w.anomalies.size(); ++i) {
      if (i > 0) joined += ",";
      joined += w.anomalies[i];
    }
    std::printf("TOP   anomaly %s%s\n", joined.c_str(),
                w.signal ? " (corroborating drift signal)" : "");
  }
}

/// The --json document: the same facts as the TOP/FLEET text, one object.
std::string report_json(const FleetReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("liberate_top/v1");
  w.key("fleet").begin_object();
  w.key("environment").value(report.environment);
  w.key("app").value(report.app);
  w.key("shards").value(static_cast<std::uint64_t>(report.shards));
  w.key("technique_initial").value(report.technique_initial);
  w.key("technique_final").value(report.technique_final);
  if (!report.fingerprint_source.empty()) {
    // Active ambiguity fingerprint (docs/fingerprinting.md): the latest
    // probed digest plus the cache entry it matched and how.
    w.key("fingerprint").begin_object();
    w.key("digest").value(report.fingerprint_digest);
    w.key("dims").value(static_cast<std::uint64_t>(report.fingerprint_dims));
    if (!report.fingerprint_profile.empty()) {
      w.key("profile").value(report.fingerprint_profile);
    } else {
      w.key("profile").null();
    }
    w.key("source").value(report.fingerprint_source);
    w.key("probe_flows")
        .value(static_cast<std::uint64_t>(report.fingerprint_probe_flows));
    w.end_object();
  } else {
    w.key("fingerprint").null();
  }
  w.key("waves").begin_array();
  for (const FleetWaveReport& wave : report.waves) {
    w.begin_object();
    w.key("wave").value(static_cast<std::uint64_t>(wave.wave));
    w.key("flows").value(static_cast<std::uint64_t>(wave.stats.flows));
    w.key("diff_rate").value(wave.stats.differentiated_rate());
    w.key("blocked_rate").value(wave.stats.blocked_rate());
    w.key("incomplete_rate").value(wave.stats.incomplete_rate());
    w.key("lat_us").value(wave.stats.mean_latency_us());
    w.key("state").value(deploy_state_name(wave.state_after));
    w.key("technique").value(wave.technique_after);
    w.key("anomalies").begin_array();
    for (const std::string& a : wave.anomalies) w.value(a);
    w.end_array();
    if (wave.readapt_path) {
      w.key("readapt").begin_object();
      w.key("path").value(readapt_path_name(*wave.readapt_path));
      w.key("rounds").value(wave.readapt_rounds);
      w.key("probe_flows")
          .value(static_cast<std::uint64_t>(wave.readapt_probe_flows));
      w.key("ladder").begin_array();
      for (const deploy::ReadaptStageCost& s : wave.readapt_ladder) {
        w.begin_object();
        w.key("stage").value(s.stage);
        w.key("rounds").value(s.rounds);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.key("cost").begin_object();
  w.key("analysis_rounds").value(report.initial_analysis_rounds);
  w.key("initial_from_cache").value(report.initial_from_cache);
  w.key("readapts").value(static_cast<std::uint64_t>(report.readapts));
  w.key("readapt_rounds").value(report.readapt_rounds);
  w.end_object();
  w.key("totals").begin_object();
  w.key("flows").value(static_cast<std::uint64_t>(report.totals.flows));
  w.key("differentiated")
      .value(static_cast<std::uint64_t>(report.totals.differentiated));
  w.key("blocked").value(static_cast<std::uint64_t>(report.totals.blocked));
  w.key("incomplete")
      .value(static_cast<std::uint64_t>(report.totals.incomplete));
  w.end_object();
  w.end_object();

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
  const obs::HdrSnapshot lat =
      obs::MetricsRegistry::instance().hdr("fleet.flow_latency_us").snapshot();
  if (lat.count > 0) {
    w.key("latency").begin_object();
    w.key("p50").value(lat.value_at_quantile(0.5));
    w.key("p90").value(lat.value_at_quantile(0.9));
    w.key("p99").value(lat.value_at_quantile(0.99));
    w.key("max").value(lat.max);
    w.key("count").value(lat.count);
    w.end_object();
  } else {
    w.key("latency").null();
  }
#else
  w.key("latency").null();
#endif
  if (!report.telemetry_json.empty()) {
    w.key("telemetry").raw_value(report.telemetry_json);
  } else {
    w.key("telemetry").null();
  }
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false, json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) once = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  ClassifierFingerprintCache cache;

  FleetOptions opts;
  opts.shards = 4;
  opts.flows_per_wave = 8;
  opts.waves = 8;
  opts.faults = netsim::FaultPolicy::reorder_heavy();
  opts.cache = &cache;
  // Probe the ambiguity digest at deploy time and on readapts, so the JSON
  // snapshot carries the active fingerprint.
  opts.ambiguity_probes = true;
  // Mid-soak countermeasure: a normalizer lands in front of the classifier
  // at wave 4 and kills the deployed fragmentation technique — watch the
  // diff-rate sparklines jump, the anomaly flags corroborate, and the
  // control plane re-adapt.
  opts.change_at_wave = 4;
  opts.classifier_change = [](dpi::Environment& env) {
    dpi::NormalizerConfig cfg;
    cfg.reassemble_fragments = true;
    env.net.emplace_at<dpi::NormalizerElement>(0, cfg);
  };
  if (!once) opts.on_wave = render_wave;

#if LIBERATE_OBS_LEVEL < LIBERATE_OBS_LEVEL_METRICS
  if (!json) {
    std::printf("TOP (obs level 0: sparklines and quantiles compiled out)\n");
  }
#endif

  FleetEngine engine(opts);
  FleetReport report = engine.run(trace::amazon_video_trace(8 * 1024));

  if (json) {
    // Single machine-readable snapshot; nothing else on stdout.
    std::printf("%s\n", report_json(report).c_str());
    return 0;
  }
  if (once && !report.waves.empty()) {
    render_wave(report.waves.back());
  }
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
  std::printf("TOP telemetry_json bytes=%zu\n", report.telemetry_json.size());
#endif
  std::printf("%s", report.summary().c_str());
  return 0;
}
