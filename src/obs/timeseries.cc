#include "obs/timeseries.h"

#include <cmath>

#include "obs/metrics.h"
#include "util/json.h"

namespace liberate::obs {

double series_ewma(const std::vector<SeriesPoint>& points, double alpha) {
  if (points.empty()) return 0;
  double ewma = points.front().value;
  for (std::size_t i = 1; i < points.size(); ++i) {
    ewma = alpha * points[i].value + (1.0 - alpha) * ewma;
  }
  return ewma;
}

std::vector<SeriesPoint> series_rate(const std::vector<SeriesPoint>& points) {
  std::vector<SeriesPoint> out;
  if (points.size() < 2) return out;
  out.reserve(points.size() - 1);
  for (std::size_t i = 1; i < points.size(); ++i) {
    const double dt_s =
        points[i].t_us > points[i - 1].t_us
            ? static_cast<double>(points[i].t_us - points[i - 1].t_us) / 1e6
            : 0;
    const double dv = points[i].value - points[i - 1].value;
    out.push_back({points[i].t_us, dt_s > 0 ? dv / dt_s : 0});
  }
  return out;
}

TimeSeriesStore& TimeSeriesStore::instance() {
  static TimeSeriesStore store;
  return store;
}

void TimeSeriesStore::push_locked(const SeriesKey& key, std::uint64_t t_us,
                                  double value) {
  series_.try_emplace(key, kCapacity).first->second.push({t_us, value});
}

void TimeSeriesStore::sample(std::string_view name, int shard,
                             std::uint64_t t_us, double value) {
  SeriesKey key{std::string(name), shard};
  std::lock_guard<std::mutex> lock(mutex_);
  push_locked(key, t_us, value);
}

void TimeSeriesStore::tick(std::uint64_t t_us,
                           const std::vector<std::string>& prefixes) {
  MetricsSnapshot metrics = MetricsRegistry::instance().scalars();
  auto matches = [&prefixes](const std::string& name) {
    for (const std::string& p : prefixes) {
      if (name.compare(0, p.size(), p) == 0) return true;
    }
    return false;
  };
  std::lock_guard<std::mutex> lock(mutex_);
  const bool first = !ticked_;
  ticked_ = true;
  for (const auto& [name, total] : metrics.counters) {
    if (!matches(name)) continue;
    auto [it, inserted] = tick_base_.try_emplace(name, total);
    if (inserted && first) continue;  // cold start: establish the base only
    const std::uint64_t base = inserted ? 0 : it->second;
    it->second = total;
    // Counters are monotonic per metric; a reset between ticks would show
    // as total < base — clamp to 0 rather than emit a negative burst.
    const double delta =
        total >= base ? static_cast<double>(total - base) : 0.0;
    push_locked(SeriesKey{name + ".delta", -1}, t_us, delta);
  }
  for (const auto& [name, g] : metrics.gauges) {
    if (!matches(name)) continue;
    push_locked(SeriesKey{name, -1}, t_us, static_cast<double>(g.value));
  }
}

TimeSeriesSnapshot TimeSeriesStore::snapshot(std::string_view prefix) const {
  TimeSeriesSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, ring] : series_) {
    if (!prefix.empty() &&
        key.name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    SeriesSnapshot out;
    out.key = key;
    out.points = ring.to_vector();
    out.dropped = ring.dropped();
    out.total = ring.total();
    snap.series.push_back(std::move(out));
  }
  return snap;
}

void TimeSeriesStore::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
  tick_base_.clear();
  ticked_ = false;
}

std::string timeseries_to_json(const TimeSeriesSnapshot& snap,
                               double ewma_alpha) {
  // Degenerate producers (zero-flow shards, empty waves) must surface as 0,
  // not NaN/null: consumers difference and plot these series blindly.
  auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  JsonWriter w;
  w.begin_object();
  w.key("series").begin_array();
  for (const SeriesSnapshot& s : snap.series) {
    w.begin_object();
    w.key("name").value(s.key.name);
    w.key("shard").value(s.key.shard);
    w.key("points").begin_array();
    for (const SeriesPoint& p : s.points) {
      w.begin_array();
      w.value(p.t_us);
      w.value(finite(p.value));
      w.end_array();
    }
    w.end_array();
    w.key("dropped").value(s.dropped);
    w.key("total").value(s.total);
    w.key("ewma").value(finite(series_ewma(s.points, ewma_alpha)));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace liberate::obs
