// Exporters: Prometheus text exposition, the JSON snapshot document, and the
// analysis-report JSON with an embedded telemetry block (core/report_io).
//
// Pinned to full level so the seeded snapshot is populated even in a
// level-0 build.
#undef LIBERATE_OBS_LEVEL
#define LIBERATE_OBS_LEVEL 2

#include <gtest/gtest.h>

#include "core/liberate.h"
#include "core/report_io.h"
#include "obs/obs.h"
#include "obs/snapshot.h"

namespace liberate::obs {
namespace {

Snapshot seeded_snapshot() {
  reset_all();
  LIBERATE_COUNTER_ADD("test.export.requests", 3);
  LIBERATE_GAUGE_SET("test.export.depth", 5);
  LIBERATE_GAUGE_SET("test.export.depth", 2);
  LIBERATE_HDR_RECORD("test.export.latency", 250);
  LIBERATE_HDR_RECORD("test.export.latency", 2500);
  LIBERATE_OBS_EVENT(42, "test", "export", fv("rule", "video"));
  {
    ScopedSpan s("test.export.span", []() { return std::uint64_t{9}; });
  }
  return capture();
}

TEST(ObsExport, PrometheusTextFormat) {
  Snapshot snap = seeded_snapshot();
  std::string text = to_prometheus_text(snap.metrics);
  // Dots become underscores; TYPE lines announce each family.
  EXPECT_NE(text.find("# TYPE test_export_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_requests 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_export_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("test_export_depth 2"), std::string::npos);
  EXPECT_NE(text.find("test_export_depth_high_water 5"), std::string::npos);
  // Histograms export as summaries: quantile series plus sum and count.
  EXPECT_NE(text.find("# TYPE test_export_latency summary"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_latency{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("test_export_latency_sum 2750"), std::string::npos);
  EXPECT_NE(text.find("test_export_latency_count 2"), std::string::npos);
}

TEST(ObsExport, JsonSnapshotDocument) {
  Snapshot snap = seeded_snapshot();
  std::string doc = to_json(snap);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
  EXPECT_NE(doc.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"test.export.requests\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"high_water\":5"), std::string::npos);
  EXPECT_NE(doc.find("\"test.export.latency\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"spans\":["), std::string::npos);
  EXPECT_NE(doc.find("\"test.export.span\""), std::string::npos);
  EXPECT_NE(doc.find("\"totals\":{\"test.export\":1}"), std::string::npos);
  EXPECT_NE(doc.find("\"rule\":\"video\""), std::string::npos);
}

TEST(ObsExport, JsonSnapshotCapsRingDumpsNotTotals) {
  reset_all();
  constexpr std::uint64_t kPushed = kJsonEvents + 50;
  for (std::uint64_t i = 0; i < kPushed; ++i) {
    LIBERATE_OBS_EVENT(i, "test", "burst");
  }
  Snapshot snap = capture();
  ASSERT_EQ(snap.events.recent.size(), kPushed);  // the ring kept them all
  std::string doc = to_json(snap);
  // Totals stay exact while the dump keeps only the newest kJsonEvents.
  auto has = [&doc](const std::string& s) {
    return doc.find(s) != std::string::npos;
  };
  EXPECT_TRUE(has("\"test.burst\":" + std::to_string(kPushed)));
  EXPECT_FALSE(has("\"ts_us\":49,"));
  EXPECT_TRUE(has("\"ts_us\":50,"));
  EXPECT_TRUE(has("\"ts_us\":" + std::to_string(kPushed - 1) + ","));
  reset_all();
}

TEST(ObsExport, AnalysisReportCarriesTelemetryBlock) {
  core::SessionReport report;
  report.selected_technique = "split/tcp-segmentation";
  report.total_rounds = 7;

  std::string plain = core::analysis_report_json(report);
  EXPECT_NE(plain.find("\"analysis\":{"), std::string::npos);
  EXPECT_NE(plain.find("\"selected_technique\":\"split/tcp-segmentation\""),
            std::string::npos);
  EXPECT_EQ(plain.find("\"telemetry\""), std::string::npos);

  Snapshot snap = seeded_snapshot();
  std::string with = core::analysis_report_json(report, snap);
  EXPECT_NE(with.find("\"analysis\":{"), std::string::npos);
  EXPECT_NE(with.find("\"telemetry\":{"), std::string::npos);
  EXPECT_NE(with.find("\"test.export.requests\":3"), std::string::npos);
  // The analysis block itself is byte-identical with or without telemetry —
  // the determinism invariant the skype_evasion example checks end-to-end.
  EXPECT_NE(with.find(plain.substr(1, plain.size() - 2)), std::string::npos);
}

}  // namespace
}  // namespace liberate::obs
