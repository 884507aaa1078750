// event_log.h — structured event stream with a bounded ring sink.
//
// An Event is {sim-clock timestamp, layer, kind, key/value fields}; the
// per-kind totals are exact (maintained incrementally, never dropped) while
// the ring keeps only the newest EventLog::kCapacity events for inspection —
// under a million-round workload the totals stay meaningful and memory stays
// flat.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ring.h"
#include "util/thread_pool.h"

namespace liberate::obs {

struct EventField {
  std::string key;
  std::string value;
};

/// Field constructors — keep instrumentation sites terse.
inline EventField fv(std::string_view key, std::string_view value) {
  return EventField{std::string(key), std::string(value)};
}
inline EventField fv(std::string_view key, const char* value) {
  return EventField{std::string(key), std::string(value)};
}
inline EventField fv(std::string_view key, std::uint64_t value) {
  return EventField{std::string(key), std::to_string(value)};
}
inline EventField fv(std::string_view key, std::int64_t value) {
  return EventField{std::string(key), std::to_string(value)};
}
inline EventField fv(std::string_view key, int value) {
  return EventField{std::string(key), std::to_string(value)};
}
// No std::size_t overload: on LP64 it IS std::uint64_t.
inline EventField fv(std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return EventField{std::string(key), buf};
}
inline EventField fv(std::string_view key, bool value) {
  return EventField{std::string(key), value ? "true" : "false"};
}

struct Event {
  std::uint64_t ts_us = 0;  // sim-clock microseconds in the emitting world
  std::string layer;        // "netsim" | "dpi" | "core" | "util" | ...
  std::string kind;
  int worker = -1;
  std::vector<EventField> fields;
};

struct EventLogSnapshot {
  std::vector<Event> recent;                        // oldest -> newest
  std::map<std::string, std::uint64_t> totals;      // "layer.kind" -> count
  std::uint64_t dropped = 0;                        // evicted from the ring
};

class EventLog {
 public:
  static constexpr std::size_t kCapacity = 4096;

  static EventLog& instance() {
    static EventLog log;
    return log;
  }

  void record(std::uint64_t ts_us, std::string_view layer,
              std::string_view kind,
              std::initializer_list<EventField> fields) {
    Event e;
    e.ts_us = ts_us;
    e.layer = layer;
    e.kind = kind;
    e.worker = ThreadPool::current_worker_index();
    e.fields.assign(fields.begin(), fields.end());
    std::lock_guard<std::mutex> lock(mutex_);
    totals_[e.layer + "." + e.kind] += 1;
    ring_.push(std::move(e));
  }

  EventLogSnapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    EventLogSnapshot snap;
    snap.recent = ring_.to_vector();
    snap.totals = totals_;
    snap.dropped = ring_.dropped();
    return snap;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    totals_.clear();
  }

 private:
  EventLog() = default;

  mutable std::mutex mutex_;
  Ring<Event> ring_{kCapacity};
  std::map<std::string, std::uint64_t> totals_;
};

}  // namespace liberate::obs
