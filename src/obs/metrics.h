// metrics.h — the process-wide metrics registry.
//
// Counters, gauges and HDR histograms, addressed by name. The hot
// path is a single relaxed atomic add into a per-worker shard (indexed by
// ThreadPool's stable worker index, padded to a cache line each), so
// instrumented code never contends on a lock and never serializes workers;
// shards are summed only when a snapshot is taken. Registration (the
// name -> metric lookup) happens once per instrumentation site via a
// function-local static, behind the registry mutex.
//
// Nothing here reads LIBERATE_OBS_LEVEL: level gating lives entirely in the
// macros of obs.h, so these definitions are identical in every translation
// unit regardless of its level (no ODR hazards), and a fully disabled build
// simply never references them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/hdr_histogram.h"
#include "obs/shard.h"
#include "util/thread_pool.h"

namespace liberate::obs {

/// Monotonic counter. add() is one relaxed fetch_add on the caller's shard.
class Counter {
 public:
  void add(std::uint64_t n) {
    cells_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const ShardCell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (ShardCell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<ShardCell, kShards> cells_{};
};

/// Point-in-time value with a high-water mark. set() races are benign (last
/// writer wins); the high-water mark is maintained with a CAS loop.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    std::int64_t hwm = high_water_.load(std::memory_order_relaxed);
    while (v > hwm &&
           !high_water_.compare_exchange_weak(hwm, v,
                                              std::memory_order_relaxed)) {
    }
  }
  /// A single fetch_add: two concurrent add()s both land (the old
  /// set(load()+delta) formulation dropped increments under contention).
  /// The high-water mark then races the updated value through the same CAS
  /// loop set() uses.
  void add(std::int64_t delta) {
    const std::int64_t v =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    std::int64_t hwm = high_water_.load(std::memory_order_relaxed);
    while (v > hwm &&
           !high_water_.compare_exchange_weak(hwm, v,
                                              std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_water_{0};
};

struct GaugeSnapshot {
  std::int64_t value = 0;
  std::int64_t high_water = 0;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HdrSnapshot> hdr_histograms;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance() {
    static MetricsRegistry registry;
    return registry;
  }

  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
  }
  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
  }
  /// Log-linear HDR histogram for integer-valued latencies/sizes; no bounds
  /// to choose — every uint64 value has a bucket (hdr_histogram.h).
  HdrHistogram& hdr(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = hdrs_[name];
    if (!slot) slot = std::make_unique<HdrHistogram>();
    return *slot;
  }

  MetricsSnapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap = scalars_locked();
    for (const auto& [name, h] : hdrs_) {
      snap.hdr_histograms[name] = h->snapshot();
    }
    return snap;
  }
  /// Counters and gauges only (hdr_histograms left empty): what a periodic
  /// tick reads, without merging every histogram's shards.
  MetricsSnapshot scalars() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return scalars_locked();
  }

  /// Zero every metric in place. Handles cached at instrumentation sites
  /// (function-local statics) stay valid — metrics are never deallocated.
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : hdrs_) h->reset();
  }

 private:
  MetricsRegistry() = default;

  MetricsSnapshot scalars_locked() const {
    MetricsSnapshot snap;
    for (const auto& [name, c] : counters_) snap.counters[name] = c->total();
    for (const auto& [name, g] : gauges_) {
      snap.gauges[name] = GaugeSnapshot{g->value(), g->high_water()};
    }
    return snap;
  }

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HdrHistogram>> hdrs_;
};

}  // namespace liberate::obs
