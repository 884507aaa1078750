// Satellite guard: at LIBERATE_OBS_LEVEL=0 every obs macro must be a true
// no-op — arguments unevaluated, registry untouched. This TU forces level 0
// regardless of the build-wide setting (the headers document this as a
// supported per-TU override; inline definitions are level-independent, so
// mixing this TU with level-2 TUs in one binary is exactly the ODR situation
// the design promises to survive).
#undef LIBERATE_OBS_LEVEL
#define LIBERATE_OBS_LEVEL 0

#include "obs/obs.h"

#include <gtest/gtest.h>

// The no-op macros must compile without obs/metrics.h et al. being included
// (obs.h only pulls them in at level >= 1); snapshot.h is included AFTER the
// macros so we can inspect the registry the macros were supposed to skip.
#include "obs/snapshot.h"

static_assert(LIBERATE_OBS_LEVEL == 0,
              "this TU pins the level to 0 to test the no-op expansion");

namespace liberate::obs {
namespace {

TEST(ObsNoop, MacrosDoNotEvaluateArguments) {
  int evals = 0;
  LIBERATE_COUNTER_ADD("test.noop.counter", evals++);
  LIBERATE_GAUGE_SET("test.noop.gauge", evals++);
  LIBERATE_GAUGE_ADD("test.noop.gauge", evals++);
  LIBERATE_HDR_RECORD("test.noop.hist", evals++);
  LIBERATE_OBS_EVENT(0, "test", "noop", fv("n", evals++));
  LIBERATE_OBS_SPAN("test.noop.span", [&evals]() {
    evals++;
    return std::uint64_t{0};
  });
  EXPECT_EQ(evals, 0);
}

TEST(ObsNoop, RegistryNeverSeesLevelZeroNames) {
  LIBERATE_COUNTER_ADD("test.noop.counter", 1);
  LIBERATE_GAUGE_SET("test.noop.gauge", 1);
  LIBERATE_HDR_RECORD("test.noop.hist", 1);
  LIBERATE_OBS_EVENT(0, "test", "noop_kind");
  Snapshot snap = capture();
  EXPECT_EQ(snap.metrics.counters.count("test.noop.counter"), 0u);
  EXPECT_EQ(snap.metrics.gauges.count("test.noop.gauge"), 0u);
  EXPECT_EQ(snap.metrics.hdr_histograms.count("test.noop.hist"), 0u);
  EXPECT_EQ(snap.events.totals.count("test.noop_kind"), 0u);
}

TEST(ObsNoop, MacrosAreSingleStatements) {
  // The no-ops must expand to one statement so they nest under bare
  // if/else without braces — a compile-shape test.
  bool flag = true;
  if (flag)
    LIBERATE_COUNTER_ADD("test.noop.if", 1);
  else
    LIBERATE_GAUGE_SET("test.noop.else", 1);
  if (!flag)
    LIBERATE_OBS_EVENT(0, "test", "if_shape");
  else
    LIBERATE_OBS_SPAN("test.noop.span_shape", []() { return 0ull; });
  SUCCEED();
}

TEST(ObsNoop, ProvenanceMacrosDoNotEvaluateArguments) {
  int evals = 0;
  auto touch = [&evals]() {
    ++evals;
    return Bytes{0x45, 0x00};
  };
  static_cast<void>(touch);  // only the macros below reference it
  LIBERATE_PROV_SCOPE(static_cast<std::uint64_t>(evals++));
  LIBERATE_PROV_PACKET(touch(), "noop");
  LIBERATE_PROV_EDGE(0, touch(), touch(), "split", "noop");
  LIBERATE_PROV_NOTE(0, prov::FlowKey{}, "noop", fv("n", evals++));
  LIBERATE_PROV_NOTE_PKT(0, touch(), "noop", fv("n", evals++));
  EXPECT_EQ(evals, 0);
}

TEST(ObsNoop, ProvenanceRecorderNeverSeesLevelZeroTraffic) {
  Bytes datagram{0x45, 0x00, 0x00, 0x14};
  LIBERATE_PROV_PACKET(datagram, "noop");
  LIBERATE_PROV_NOTE_PKT(0, datagram, "noop-kind");
  Snapshot snap = capture();
  EXPECT_EQ(snap.provenance.nodes.size(), 0u);
  EXPECT_EQ(snap.provenance.ledgers.size(), 0u);
  EXPECT_EQ(snap.provenance.total_records, 0u);
}

TEST(ObsNoop, CostMacrosDoNotEvaluateArguments) {
  int evals = 0;
  LIBERATE_COST_TICK(kRounds, evals++);
  LIBERATE_COST_TICK(kProbes, evals++);
  EXPECT_EQ(evals, 0);
}

TEST(ObsNoop, CostMacrosAreSingleStatements) {
  bool flag = true;
  if (flag)
    LIBERATE_COST_TICK(kRounds, 1);
  else
    LIBERATE_COST_SCOPE(kDetection);
  SUCCEED();
}

TEST(ObsNoop, PropagateIsIdentityAtLevelZero) {
  // At level 0 LIBERATE_OBS_PROPAGATE must hand back the callable itself —
  // no wrapper, no context capture. Variadic: lambdas containing commas
  // must survive the expansion.
  auto wrapped = LIBERATE_OBS_PROPAGATE([]() { return 42; });
  EXPECT_EQ(wrapped(), 42);
  auto with_commas = LIBERATE_OBS_PROPAGATE([a = 20, b = 22]() {
    return a + b;
  });
  EXPECT_EQ(with_commas(), 42);
}

TEST(ObsNoop, ProvenanceMacrosAreSingleStatements) {
  bool flag = true;
  Bytes d{0x45};
  if (flag)
    LIBERATE_PROV_PACKET(d, "if");
  else
    LIBERATE_PROV_EDGE(0, d, d, "split", "else");
  if (!flag)
    LIBERATE_PROV_NOTE(0, prov::FlowKey{}, "if_shape");
  else
    LIBERATE_PROV_NOTE_PKT(0, d, "else_shape");
  SUCCEED();
}

}  // namespace
}  // namespace liberate::obs
