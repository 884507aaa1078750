// Snapshot correctness under concurrency: pool workers hammer counters and
// histograms while an off-pool reader takes snapshots the whole time. After
// the writers join, totals must be exactly conserved (relaxed atomics lose
// nothing), and every mid-flight snapshot must be internally consistent
// (histogram count == sum of its buckets). Run under
// -DLIBERATE_SANITIZE=thread for the TSan leg of the matrix.
//
// Pinned to full level so the contention tests run even in a level-0 build.
#undef LIBERATE_OBS_LEVEL
#define LIBERATE_OBS_LEVEL 2

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

#include "obs/obs.h"
#include "obs/snapshot.h"
#include "util/thread_pool.h"

namespace liberate::obs {
namespace {

TEST(ObsConcurrency, CounterTotalsConservedUnderContention) {
  Counter& c =
      MetricsRegistry::instance().counter("test.concurrency.counter");
  c.reset();
  constexpr int kWorkers = 8;
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 5000;

  std::atomic<bool> done{false};
  // Reader thread: snapshot continuously while writers run. Totals are
  // monotone, so each observation must be >= the previous one.
  auto reader = std::async(std::launch::async, [&]() {
    std::uint64_t last = 0;
    std::uint64_t snapshots = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::uint64_t now = c.total();
      EXPECT_GE(now, last);
      last = now;
      snapshots += 1;
    }
    return snapshots;
  });

  {
    ThreadPool pool(kWorkers);
    std::vector<std::future<void>> fs;
    for (int t = 0; t < kTasks; ++t) {
      fs.push_back(pool.submit([]() {
        for (int i = 0; i < kAddsPerTask; ++i) {
          LIBERATE_COUNTER_ADD("test.concurrency.counter", 1);
        }
      }));
    }
    for (auto& f : fs) f.get();
  }
  done.store(true, std::memory_order_release);
  EXPECT_GT(reader.get(), 0u);
  EXPECT_EQ(c.total(),
            static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
}

TEST(ObsConcurrency, GaugeHighWaterNeverBelowAnySetValue) {
  Gauge& g = MetricsRegistry::instance().gauge("test.concurrency.gauge");
  g.reset();
  constexpr int kWorkers = 4;
  constexpr int kMax = 10000;
  {
    ThreadPool pool(kWorkers);
    std::vector<std::future<void>> fs;
    for (int t = 0; t < kWorkers * 4; ++t) {
      fs.push_back(pool.submit([t]() {
        for (int i = 0; i <= kMax; ++i) {
          LIBERATE_GAUGE_SET("test.concurrency.gauge", (i + t) % (kMax + 1));
        }
      }));
    }
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(g.high_water(), kMax);
  EXPECT_GE(g.high_water(), g.value());
}

TEST(ObsConcurrency, GaugeAddConservesDeltasUnderContention) {
  // Regression: add() used to be set(load()+delta) — two racing adds could
  // lose an update. It is now a single fetch_add, so concurrent deltas must
  // sum exactly.
  Gauge& g = MetricsRegistry::instance().gauge("test.concurrency.gauge_add");
  g.reset();
  constexpr int kWorkers = 8;
  constexpr int kTasks = 32;
  constexpr int kAddsPerTask = 5000;
  {
    ThreadPool pool(kWorkers);
    std::vector<std::future<void>> fs;
    for (int t = 0; t < kTasks; ++t) {
      fs.push_back(pool.submit([t]() {
        // Half the tasks add, half subtract a smaller amount: the exact
        // final value only survives if no delta is ever lost.
        const int delta = (t % 2 == 0) ? 3 : -1;
        for (int i = 0; i < kAddsPerTask; ++i) {
          LIBERATE_GAUGE_ADD("test.concurrency.gauge_add", delta);
        }
      }));
    }
    for (auto& f : fs) f.get();
  }
  constexpr std::int64_t kExpected =
      static_cast<std::int64_t>(kTasks / 2) * kAddsPerTask * 3 -
      static_cast<std::int64_t>(kTasks / 2) * kAddsPerTask;
  EXPECT_EQ(g.value(), kExpected);
  EXPECT_GE(g.high_water(), g.value());
}

TEST(ObsConcurrency, HdrHistogramCountsConservedUnderContention) {
  HdrHistogram& h = MetricsRegistry::instance().hdr("test.concurrency.hdr");
  h.reset();
  constexpr int kWorkers = 8;
  constexpr int kTasks = 32;
  constexpr int kRecordsPerTask = 4000;
  std::atomic<bool> done{false};
  auto reader = std::async(std::launch::async, [&]() {
    while (!done.load(std::memory_order_acquire)) {
      HdrSnapshot snap = h.snapshot();
      EXPECT_LE(snap.count,
                static_cast<std::uint64_t>(kTasks) * kRecordsPerTask);
    }
  });
  {
    ThreadPool pool(kWorkers);
    std::vector<std::future<void>> fs;
    for (int t = 0; t < kTasks; ++t) {
      fs.push_back(pool.submit([&h, t]() {
        for (int i = 0; i < kRecordsPerTask; ++i) {
          h.record(static_cast<std::uint64_t>(t) * 1000 +
                   static_cast<std::uint64_t>(i % 97));
        }
      }));
    }
    for (auto& f : fs) f.get();
  }
  done.store(true, std::memory_order_release);
  reader.get();
  HdrSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kTasks) * kRecordsPerTask);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t c : snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, snap.count);
  h.reset();
}

TEST(ObsConcurrency, TimeSeriesStoreSampleUnderContention) {
  TimeSeriesStore& ts = TimeSeriesStore::instance();
  ts.reset();
  constexpr int kWorkers = 8;
  constexpr int kTasks = 16;
  constexpr int kSamplesPerTask = 2000;
  {
    ThreadPool pool(kWorkers);
    std::vector<std::future<void>> fs;
    for (int t = 0; t < kTasks; ++t) {
      fs.push_back(pool.submit([&ts, t]() {
        for (int i = 0; i < kSamplesPerTask; ++i) {
          ts.sample("test.concurrency.ts", t % 4,
                    static_cast<std::uint64_t>(i),
                    static_cast<double>(i));
        }
      }));
    }
    for (auto& f : fs) f.get();
  }
  const TimeSeriesSnapshot snap = ts.snapshot("test.concurrency.ts");
  std::uint64_t total = 0;
  std::uint64_t live = 0;
  std::uint64_t dropped = 0;
  for (const SeriesSnapshot& s : snap.series) {
    total += s.total;
    live += s.points.size();
    dropped += s.dropped;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kTasks) * kSamplesPerTask);
  EXPECT_EQ(live + dropped, total);  // every sample accounted for
  ts.reset();
}

TEST(ObsConcurrency, SnapshotDuringEventAndSpanTraffic) {
  reset_all();
  constexpr int kWorkers = 4;
  constexpr int kEventsPerTask = 500;
  std::atomic<bool> done{false};
  auto reader = std::async(std::launch::async, [&]() {
    while (!done.load(std::memory_order_acquire)) {
      Snapshot snap = capture();
      // Ring + dropped always accounts for every recorded span.
      EXPECT_LE(snap.spans.size(), 4096u);
    }
  });
  {
    ThreadPool pool(kWorkers);
    std::vector<std::future<void>> fs;
    for (int t = 0; t < kWorkers * 2; ++t) {
      fs.push_back(pool.submit([]() {
        for (int i = 0; i < kEventsPerTask; ++i) {
          LIBERATE_OBS_SPAN("test.concurrency.span",
                            []() { return std::uint64_t{7}; });
          LIBERATE_OBS_EVENT(static_cast<std::uint64_t>(i), "test",
                             "concurrent", fv("i", i));
        }
      }));
    }
    for (auto& f : fs) f.get();
  }
  done.store(true, std::memory_order_release);
  reader.get();
  Snapshot snap = capture();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kWorkers) * 2 * kEventsPerTask;
  EXPECT_EQ(snap.events.totals.at("test.concurrent"), kTotal);
  EXPECT_EQ(snap.spans.size() + snap.spans_dropped, kTotal);
  reset_all();
}

}  // namespace
}  // namespace liberate::obs
