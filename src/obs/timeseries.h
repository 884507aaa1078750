// timeseries.h — the telemetry hub's bounded time-series store.
//
// Point-in-time snapshots (snapshot.h) answer "what are the totals now";
// they cannot answer "when did treatment start degrading and on which
// shard". The TimeSeriesStore keeps a bounded ring of (sim-clock time,
// value) points per series, keyed by metric name × shard (shard -1 =
// fleet/process-wide), fed two ways:
//
//  * sample(name, shard, t, v) — an explicit observation pushed by the
//    control plane at a wave boundary (per-shard latency, verdict mix,
//    fault/eviction deltas);
//  * tick(t, prefixes) — a registry sweep that turns counter totals into
//    per-tick *delta* series ("<counter>.delta") and gauges into value
//    series, for every metric matching one of the name prefixes.
//
// Each series keeps the newest TimeSeriesStore::kCapacity points in an
// obs::Ring (oldest point dropped, drops counted exactly), so a
// million-wave soak holds memory flat. All timestamps are sim-clock
// microseconds — never the wall clock — so the stored series of a
// deterministic run is itself deterministic: snapshots iterate a sorted
// map and reproduce byte-identically across worker counts and match
// backends. Level gating lives in the obs.h macros (LIBERATE_TS_*); the
// classes here are level-independent, like MetricsRegistry.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ring.h"

namespace liberate::obs {

struct SeriesPoint {
  std::uint64_t t_us = 0;  // sim-clock microseconds
  double value = 0;
};

/// Identity of one series: metric name plus the shard that produced it
/// (-1 = fleet/process-wide). Ordered so snapshots are deterministic.
struct SeriesKey {
  std::string name;
  int shard = -1;

  bool operator<(const SeriesKey& o) const {
    if (name != o.name) return name < o.name;
    return shard < o.shard;
  }
};

struct SeriesSnapshot {
  SeriesKey key;
  std::vector<SeriesPoint> points;  // oldest -> newest
  std::uint64_t dropped = 0;        // points evicted from the ring
  std::uint64_t total = 0;          // points ever pushed
};

/// Exponentially-weighted moving average over the points (oldest first);
/// alpha is the weight of the newest observation. Empty series -> 0.
double series_ewma(const std::vector<SeriesPoint>& points, double alpha);

/// Per-interval rate series: value delta / time delta (in seconds) between
/// consecutive points. One point shorter than the input; empty/singleton
/// input -> empty. Zero or backwards time deltas yield a 0-rate point.
std::vector<SeriesPoint> series_rate(const std::vector<SeriesPoint>& points);

struct TimeSeriesSnapshot {
  std::vector<SeriesSnapshot> series;  // sorted by key
};

class TimeSeriesStore {
 public:
  static constexpr std::size_t kCapacity = 512;  // points per series

  static TimeSeriesStore& instance();

  /// Append one point to (name, shard). Creates the series on first use.
  void sample(std::string_view name, int shard, std::uint64_t t_us,
              double value);

  /// Registry sweep: for every counter whose name starts with one of
  /// `prefixes`, push the delta since the previous tick as
  /// "<name>.delta" (shard -1); for every matching gauge, push its value.
  /// The first tick establishes the delta base without emitting points for
  /// counters (a cold start is not a burst).
  void tick(std::uint64_t t_us, const std::vector<std::string>& prefixes);

  /// Sorted copy of every series whose name starts with `prefix` ("" =
  /// everything).
  TimeSeriesSnapshot snapshot(std::string_view prefix = {}) const;

  void reset();

 private:
  TimeSeriesStore() = default;

  void push_locked(const SeriesKey& key, std::uint64_t t_us, double value);

  mutable std::mutex mutex_;
  std::map<SeriesKey, Ring<SeriesPoint>> series_;
  std::map<std::string, std::uint64_t> tick_base_;  // counter totals at last tick
  bool ticked_ = false;
};

/// JSON rendering of a snapshot: {"series":[{"name","shard","points":
/// [[t_us, value],...],"dropped","total","ewma"},...]} — deterministic for
/// deterministic input (sorted keys, fixed float formatting).
std::string timeseries_to_json(const TimeSeriesSnapshot& snap,
                               double ewma_alpha = 0.3);

}  // namespace liberate::obs
