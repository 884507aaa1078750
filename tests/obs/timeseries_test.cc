// TimeSeriesStore semantics: ring wrap + exact drop accounting at the
// store's fixed capacity, deterministic key ordering, registry-tick delta
// series, the ewma/rate derivations, and JSON export determinism.
#undef LIBERATE_OBS_LEVEL
#define LIBERATE_OBS_LEVEL 2

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/obs.h"
#include "obs/timeseries.h"

namespace liberate::obs {
namespace {

class TimeSeriesTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeSeriesStore::instance().reset(); }
  void TearDown() override { TimeSeriesStore::instance().reset(); }
};

TEST_F(TimeSeriesTest, SampleAppendsInOrder) {
  TimeSeriesStore& ts = TimeSeriesStore::instance();
  ts.sample("ts.a", 0, 100, 1.0);
  ts.sample("ts.a", 0, 200, 2.0);
  TimeSeriesSnapshot snap = ts.snapshot("ts.a");
  ASSERT_EQ(snap.series.size(), 1u);
  ASSERT_EQ(snap.series[0].points.size(), 2u);
  EXPECT_EQ(snap.series[0].points[0].t_us, 100u);
  EXPECT_EQ(snap.series[0].points[1].value, 2.0);
  EXPECT_EQ(snap.series[0].dropped, 0u);
  EXPECT_EQ(snap.series[0].total, 2u);
}

TEST_F(TimeSeriesTest, RingWrapsOldestFirstAndCountsDrops) {
  TimeSeriesStore& ts = TimeSeriesStore::instance();
  constexpr std::uint64_t kCap = TimeSeriesStore::kCapacity;
  constexpr std::uint64_t kPushed = kCap + 6;
  for (std::uint64_t i = 0; i < kPushed; ++i) {
    ts.sample("ts.wrap", 1, i * 10, static_cast<double>(i));
  }
  TimeSeriesSnapshot snap = ts.snapshot("ts.wrap");
  ASSERT_EQ(snap.series.size(), 1u);
  const SeriesSnapshot& s = snap.series[0];
  EXPECT_EQ(s.total, kPushed);
  EXPECT_EQ(s.dropped, 6u);
  ASSERT_EQ(s.points.size(), kCap);
  // Oldest surviving point first: 6, 7, ..., kPushed - 1.
  for (std::uint64_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(s.points[i].value, static_cast<double>(6 + i));
    EXPECT_EQ(s.points[i].t_us, (6 + i) * 10);
  }
  // Other series keep their own ring.
  ts.sample("ts.wrap", 2, 0, 1.0);
  snap = ts.snapshot("ts.wrap");
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[1].total, 1u);
  EXPECT_EQ(snap.series[1].dropped, 0u);
}

TEST_F(TimeSeriesTest, SnapshotKeysAreSortedNameThenShard) {
  TimeSeriesStore& ts = TimeSeriesStore::instance();
  ts.sample("ts.k.b", 2, 0, 0);
  ts.sample("ts.k.a", 1, 0, 0);
  ts.sample("ts.k.a", -1, 0, 0);
  ts.sample("ts.k.b", 0, 0, 0);
  TimeSeriesSnapshot snap = ts.snapshot("ts.k.");
  ASSERT_EQ(snap.series.size(), 4u);
  EXPECT_EQ(snap.series[0].key.name, "ts.k.a");
  EXPECT_EQ(snap.series[0].key.shard, -1);
  EXPECT_EQ(snap.series[1].key.shard, 1);
  EXPECT_EQ(snap.series[2].key.name, "ts.k.b");
  EXPECT_EQ(snap.series[2].key.shard, 0);
  EXPECT_EQ(snap.series[3].key.shard, 2);
}

TEST_F(TimeSeriesTest, TickEmitsCounterDeltasAfterBase) {
  TimeSeriesStore& ts = TimeSeriesStore::instance();
  Counter& c = MetricsRegistry::instance().counter("tstick.flows");
  c.reset();
  c.add(10);
  ts.tick(1'000'000, {"tstick."});  // first tick: base only, no point
  TimeSeriesSnapshot snap = ts.snapshot("tstick.flows.delta");
  EXPECT_TRUE(snap.series.empty());

  c.add(7);
  ts.tick(2'000'000, {"tstick."});
  snap = ts.snapshot("tstick.flows.delta");
  ASSERT_EQ(snap.series.size(), 1u);
  ASSERT_EQ(snap.series[0].points.size(), 1u);
  EXPECT_EQ(snap.series[0].points[0].t_us, 2'000'000u);
  EXPECT_EQ(snap.series[0].points[0].value, 7.0);

  // A counter reset between ticks clamps to a 0 delta, not a negative one.
  c.reset();
  c.add(2);
  ts.tick(3'000'000, {"tstick."});
  snap = ts.snapshot("tstick.flows.delta");
  ASSERT_EQ(snap.series[0].points.size(), 2u);
  EXPECT_EQ(snap.series[0].points[1].value, 0.0);
  c.reset();
}

TEST_F(TimeSeriesTest, TickEmitsGaugeValuesAndHonorsPrefixes) {
  TimeSeriesStore& ts = TimeSeriesStore::instance();
  Gauge& g = MetricsRegistry::instance().gauge("tstick.depth");
  Gauge& other = MetricsRegistry::instance().gauge("elsewhere.depth");
  g.reset();
  other.reset();
  g.set(5);
  other.set(9);
  ts.tick(1'000'000, {"tstick."});
  TimeSeriesSnapshot snap = ts.snapshot();
  bool saw_gauge = false;
  for (const SeriesSnapshot& s : snap.series) {
    EXPECT_NE(s.key.name.rfind("tstick.", 0), std::string::npos)
        << "prefix filter leaked " << s.key.name;
    if (s.key.name == "tstick.depth") {
      saw_gauge = true;
      ASSERT_EQ(s.points.size(), 1u);
      EXPECT_EQ(s.points[0].value, 5.0);
    }
  }
  EXPECT_TRUE(saw_gauge);
  g.reset();
  other.reset();
}

TEST_F(TimeSeriesTest, EwmaAndRateDerivations) {
  std::vector<SeriesPoint> pts = {{0, 1.0}, {1'000'000, 2.0}, {2'000'000, 6.0}};
  // alpha=0.5: 1 -> 1.5 -> 3.75
  EXPECT_DOUBLE_EQ(series_ewma(pts, 0.5), 3.75);
  EXPECT_DOUBLE_EQ(series_ewma({}, 0.5), 0.0);

  std::vector<SeriesPoint> rate = series_rate(pts);
  ASSERT_EQ(rate.size(), 2u);
  EXPECT_DOUBLE_EQ(rate[0].value, 1.0);  // (2-1)/1s
  EXPECT_DOUBLE_EQ(rate[1].value, 4.0);  // (6-2)/1s
  EXPECT_TRUE(series_rate({{0, 1.0}}).empty());
}

TEST_F(TimeSeriesTest, JsonExportIsDeterministic) {
  TimeSeriesStore& ts = TimeSeriesStore::instance();
  ts.sample("ts.json", 0, 1'000'000, 0.25);
  ts.sample("ts.json", 0, 2'000'000, 0.5);
  const std::string a = timeseries_to_json(ts.snapshot("ts.json"));
  const std::string b = timeseries_to_json(ts.snapshot("ts.json"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"name\":\"ts.json\""), std::string::npos);
  EXPECT_NE(a.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(a.find("\"ewma\""), std::string::npos);
}

}  // namespace
}  // namespace liberate::obs
