// Registry semantics: counters/gauges/histograms, per-shard merge, the
// instrumentation macros, span nesting, and event-log accounting. Each test
// uses metric names unique to this file so a shared-process run cannot
// cross-contaminate.
//
// This TU pins the level to full so the macro tests hold even in a
// LIBERATE_OBS_LEVEL=0 build — and linking it next to obs_noop_test.cc
// (pinned to 0) in one binary exercises the mixed-level ODR guarantee.
#undef LIBERATE_OBS_LEVEL
#define LIBERATE_OBS_LEVEL 2

#include <gtest/gtest.h>


#include "obs/obs.h"
#include "obs/snapshot.h"
#include "util/thread_pool.h"

namespace liberate::obs {
namespace {

TEST(ObsMetrics, CounterAddsAndResets) {
  Counter& c = MetricsRegistry::instance().counter("test.metrics.counter_a");
  c.reset();
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.total(), 7u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(ObsMetrics, CounterMergesPoolAndOffPoolShards) {
  Counter& c = MetricsRegistry::instance().counter("test.metrics.counter_b");
  c.reset();
  c.add(10);  // off-pool thread -> shard 0
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> fs;
    for (int i = 0; i < 100; ++i) {
      fs.push_back(pool.submit([&c]() { c.add(1); }));
    }
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(c.total(), 110u);
}

TEST(ObsMetrics, GaugeTracksValueAndHighWater) {
  Gauge& g = MetricsRegistry::instance().gauge("test.metrics.gauge_a");
  g.reset();
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.high_water(), 12);
  g.add(-10);
  EXPECT_EQ(g.value(), -7);
  EXPECT_EQ(g.high_water(), 12);
}

TEST(ObsMetrics, MacrosRegisterAndSurviveReset) {
  MetricsRegistry::instance().reset();
  LIBERATE_COUNTER_ADD("test.metrics.macro_counter", 2);
  LIBERATE_GAUGE_SET("test.metrics.macro_gauge", 9);
  LIBERATE_HDR_RECORD("test.metrics.macro_hist", 250);
  auto snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("test.metrics.macro_counter"), 2u);
  EXPECT_EQ(snap.gauges.at("test.metrics.macro_gauge").value, 9);
  EXPECT_EQ(snap.hdr_histograms.at("test.metrics.macro_hist").count, 1u);
  // reset() zeroes in place; the cached static reference inside the macro
  // expansion keeps pointing at live storage.
  MetricsRegistry::instance().reset();
  LIBERATE_COUNTER_ADD("test.metrics.macro_counter", 5);
  snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("test.metrics.macro_counter"), 5u);
}

TEST(ObsSpan, NestingTracksParentAndSimClock) {
  SpanLog::instance().reset();
  std::uint64_t fake_now = 1000;
  auto clock = [&fake_now]() { return fake_now; };
  {
    ScopedSpan outer("test.outer", clock);
    fake_now = 2000;
    {
      ScopedSpan inner("test.inner", clock);
      fake_now = 3000;
    }
    fake_now = 4000;
  }
  auto spans = SpanLog::instance().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans land at close time: inner first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[0].start_us, 2000u);
  EXPECT_EQ(spans[0].end_us, 3000u);
  EXPECT_EQ(spans[1].start_us, 1000u);
  EXPECT_EQ(spans[1].end_us, 4000u);
  EXPECT_EQ(spans[1].worker, -1);  // not on a pool thread
}

// The ring is SpanLog::kCapacity long; six spans past it drop the six
// oldest. Spans are recorded directly, as ScopedSpan's destructor does, so
// the profiler (a separate bounded store) sees none of them.
TEST(ObsSpan, RingDropsOldestBeyondCapacity) {
  SpanLog& log = SpanLog::instance();
  log.reset();
  constexpr std::uint64_t kPushed = SpanLog::kCapacity + 6;
  for (std::uint64_t i = 0; i < kPushed; ++i) {
    SpanRecord span;
    span.id = log.next_id();
    span.name = "test.ring";
    span.start_us = i;
    span.end_us = i;
    log.record(std::move(span));
  }
  auto spans = log.snapshot();
  ASSERT_EQ(spans.size(), SpanLog::kCapacity);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(spans.front().start_us, 6u);  // oldest survivor first
  EXPECT_EQ(spans.back().start_us, kPushed - 1);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    ASSERT_EQ(spans[i].start_us, spans[i - 1].start_us + 1);
  }
  log.reset();
}

TEST(ObsEvent, TotalsAreExactEvenWhenRingDrops) {
  EventLog::instance().reset();
  constexpr std::uint64_t kPushed = EventLog::kCapacity + 5;
  for (std::uint64_t i = 0; i < kPushed; ++i) {
    LIBERATE_OBS_EVENT(i, "test", "tick", fv("i", i));
  }
  auto snap = EventLog::instance().snapshot();
  EXPECT_EQ(snap.totals.at("test.tick"), kPushed);
  ASSERT_EQ(snap.recent.size(), EventLog::kCapacity);
  EXPECT_EQ(snap.dropped, 5u);
  EXPECT_EQ(snap.recent.front().ts_us, 5u);  // oldest survivor first
  EXPECT_EQ(snap.recent.back().ts_us, kPushed - 1);
  ASSERT_EQ(snap.recent.back().fields.size(), 1u);
  EXPECT_EQ(snap.recent.back().fields[0].key, "i");
  EXPECT_EQ(snap.recent.back().fields[0].value, std::to_string(kPushed - 1));
  EventLog::instance().reset();
}

TEST(ObsSnapshot, CaptureAndResetAllCoverEverySink) {
  reset_all();
  LIBERATE_COUNTER_ADD("test.snapshot.counter", 1);
  LIBERATE_OBS_EVENT(0, "test", "snap");
  {
    ScopedSpan s("test.snapshot.span", []() { return std::uint64_t{0}; });
  }
  Snapshot snap = capture();
  EXPECT_EQ(snap.metrics.counters.at("test.snapshot.counter"), 1u);
  EXPECT_EQ(snap.events.totals.at("test.snap"), 1u);
  EXPECT_FALSE(snap.spans.empty());
  reset_all();
  snap = capture();
  EXPECT_EQ(snap.metrics.counters.at("test.snapshot.counter"), 0u);
  EXPECT_TRUE(snap.events.totals.empty());
  EXPECT_TRUE(snap.spans.empty());
}

}  // namespace
}  // namespace liberate::obs
