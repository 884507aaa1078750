// span.h — sim-clock span tracing.
//
// A ScopedSpan brackets a region of work with timestamps read from a
// caller-supplied clock — by convention the *simulation* clock of the world
// doing the work (netsim::EventLoop::now()), never the wall clock, so spans
// of a deterministic replay are themselves deterministic and replayable.
// Parent/child nesting follows the *ambient span id* (obs/prof/context.h):
// a span opened while another span is open on the same thread becomes its
// child, and pool submissions wrapped in LIBERATE_OBS_PROPAGATE carry the
// submitting thread's ambient span across to the worker — so a wave chunk
// executed by a stealing worker nests under the phase that submitted it,
// never under an unrelated span that happens to be open on that worker.
// Completed spans land in a global ring of SpanLog::kCapacity (oldest
// dropped), and every enter/exit additionally feeds the hierarchical
// profiler (obs/prof/profiler.h) with the span's sim-clock and wall-clock
// deltas.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/prof/context.h"
#include "obs/prof/profiler.h"
#include "obs/ring.h"
#include "util/thread_pool.h"

namespace liberate::obs {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::string name;
  std::uint64_t start_us = 0;  // sim-clock microseconds
  std::uint64_t end_us = 0;
  int worker = -1;  // pool worker index, -1 = off-pool thread
};

class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 4096;

  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }

  std::uint64_t next_id() {
    return id_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void record(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.push(std::move(span));
  }

  std::vector<SpanRecord> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.to_vector();
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.dropped();
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
  }

 private:
  SpanLog() = default;

  mutable std::mutex mutex_;
  Ring<SpanRecord> ring_{kCapacity};
  std::atomic<std::uint64_t> id_counter_{0};
};

using SimClockFn = std::function<std::uint64_t()>;

class ScopedSpan {
 public:
  ScopedSpan(std::string name, SimClockFn clock)
      : clock_(std::move(clock)), saved_span_id_(current_span_id()) {
    record_.id = SpanLog::instance().next_id();
    record_.parent_id = saved_span_id_;
    record_.name = std::move(name);
    record_.start_us = clock_ ? clock_() : 0;
    record_.worker = ThreadPool::current_worker_index();
    wall_start_ = std::chrono::steady_clock::now();
    prof_ = prof::Profiler::instance().enter(record_.name);
    current_span_id() = record_.id;
  }

  ~ScopedSpan() {
    record_.end_us = clock_ ? clock_() : record_.start_us;
    const std::uint64_t sim_us = record_.end_us > record_.start_us
                                     ? record_.end_us - record_.start_us
                                     : 0;
    const auto wall = std::chrono::steady_clock::now() - wall_start_;
    prof::Profiler::instance().exit(
        prof_, sim_us,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
                .count()));
    current_span_id() = saved_span_id_;
    SpanLog::instance().record(std::move(record_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  SimClockFn clock_;
  std::uint64_t saved_span_id_;
  std::chrono::steady_clock::time_point wall_start_;
  prof::Profiler::Token prof_;
  SpanRecord record_;
};

}  // namespace liberate::obs
