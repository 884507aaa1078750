// Unit tests for the span-fed hierarchical profiler, the cost ledger, and
// the ambient-context propagation that carries both (plus the span parent)
// across thread-pool submissions.
#include "obs/prof/profiler.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/prof/context.h"
#include "obs/prof/cost_ledger.h"
#include "obs/prof/export.h"
#include "obs/span.h"

namespace liberate::obs {
namespace {

using prof::CollapsedMetric;
using prof::ProfileNode;
using prof::Profiler;
using prof::ProfileSnapshot;

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().reset();
    SpanLog::instance().reset();
  }
};

const ProfileNode* find(const ProfileNode& parent, const std::string& name) {
  for (const ProfileNode& c : parent.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST_F(ProfilerTest, SpansBuildTreeWithInclusiveAndSelfTimes) {
  std::uint64_t now = 0;
  SimClockFn clock = [&now] { return now; };
  {
    ScopedSpan outer("outer", clock);
    now += 10;
    {
      ScopedSpan inner("inner", clock);
      now += 30;
    }
    now += 5;
  }
  ProfileSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.node_count, 2u);
  EXPECT_EQ(snap.dropped, 0u);
  const ProfileNode* outer = find(snap.root, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->sim_us, 45u);
  EXPECT_EQ(outer->self_sim_us, 15u);
  const ProfileNode* inner = find(*outer, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 1u);
  EXPECT_EQ(inner->sim_us, 30u);
  EXPECT_EQ(inner->self_sim_us, 30u);
  EXPECT_TRUE(inner->children.empty());
}

TEST_F(ProfilerTest, SameNameUnderDifferentParentsIsDistinctNodes) {
  std::uint64_t now = 0;
  SimClockFn clock = [&now] { return now; };
  {
    ScopedSpan a("a", clock);
    ScopedSpan shared("shared", clock);
    now += 1;
  }
  {
    ScopedSpan b("b", clock);
    ScopedSpan shared("shared", clock);
    now += 2;
  }
  ProfileSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.node_count, 4u);
  const ProfileNode* a = find(snap.root, "a");
  const ProfileNode* b = find(snap.root, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(find(*a, "shared"), nullptr);
  ASSERT_NE(find(*b, "shared"), nullptr);
  EXPECT_EQ(find(*a, "shared")->sim_us, 1u);
  EXPECT_EQ(find(*b, "shared")->sim_us, 2u);
}

TEST_F(ProfilerTest, SnapshotSortsChildrenByNameRegardlessOfInternOrder) {
  std::uint64_t now = 0;
  SimClockFn clock = [&now] { return now; };
  { ScopedSpan z("zeta", clock); }
  { ScopedSpan m("mu", clock); }
  { ScopedSpan a("alpha", clock); }
  ProfileSnapshot snap = Profiler::instance().snapshot();
  ASSERT_EQ(snap.root.children.size(), 3u);
  EXPECT_EQ(snap.root.children[0].name, "alpha");
  EXPECT_EQ(snap.root.children[1].name, "mu");
  EXPECT_EQ(snap.root.children[2].name, "zeta");
}

TEST_F(ProfilerTest, CollapsedStacksMatchBrendanGreggFormat) {
  std::uint64_t now = 0;
  SimClockFn clock = [&now] { return now; };
  {
    ScopedSpan outer("outer", clock);
    now += 10;
    {
      ScopedSpan inner("inner", clock);
      now += 30;
    }
    now += 5;
  }
  ProfileSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(prof::profile_collapsed(snap, CollapsedMetric::kSelfSimUs),
            "outer 15\nouter;inner 30\n");
  EXPECT_EQ(prof::profile_collapsed(snap, CollapsedMetric::kCount),
            "outer 1\nouter;inner 1\n");
}

TEST_F(ProfilerTest, ProfileJsonOmitsWallClockOnRequest) {
  std::uint64_t now = 0;
  SimClockFn clock = [&now] { return now; };
  {
    ScopedSpan s("only", clock);
    now += 7;
  }
  const std::string with_wall =
      prof::profile_to_json(Profiler::instance().snapshot(), true);
  const std::string without =
      prof::profile_to_json(Profiler::instance().snapshot(), false);
  EXPECT_NE(with_wall.find("wall_ns"), std::string::npos);
  EXPECT_EQ(without.find("wall_ns"), std::string::npos);
  EXPECT_NE(without.find("\"name\":\"only\""), std::string::npos);
  EXPECT_NE(without.find("\"sim_us\":7"), std::string::npos);
}

TEST_F(ProfilerTest, NodeCapacityOverflowCountsDrops) {
  for (int i = 0; i < 600; ++i) {
    Profiler::Token tok =
        Profiler::instance().enter("n" + std::to_string(i));
    Profiler::instance().exit(tok, 1, 0);
  }
  ProfileSnapshot snap = Profiler::instance().snapshot();
  // Slot 0 is the synthetic root, so kMaxNodes - 1 real nodes fit.
  EXPECT_EQ(snap.node_count, Profiler::kMaxNodes - 1);
  EXPECT_EQ(snap.dropped, 600u - (Profiler::kMaxNodes - 1));
  // A dropped enter must not corrupt the ambient node.
  EXPECT_EQ(Profiler::current_node(), Profiler::kRootNode);
}

TEST_F(ProfilerTest, PropagateContextNestsCrossThreadSpansUnderSubmitter) {
  std::uint64_t now = 0;
  SimClockFn clock = [&now] { return now; };
  std::uint64_t parent_id = 0;
  {
    ScopedSpan parent("parent", clock);
    parent_id = parent.id();
    auto task = propagate_context([&clock, &now] {
      ScopedSpan child("child", clock);
      now += 4;
    });
    std::thread worker(std::move(task));
    worker.join();
  }
  // Profile tree: child interned under parent despite running elsewhere.
  ProfileSnapshot snap = Profiler::instance().snapshot();
  const ProfileNode* parent = find(snap.root, "parent");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(find(*parent, "child"), nullptr);
  // Span log: the cross-thread span carries the submitting span as parent.
  bool saw_child = false;
  for (const SpanRecord& s : SpanLog::instance().snapshot()) {
    if (s.name != "child") continue;
    saw_child = true;
    EXPECT_EQ(s.parent_id, parent_id);
  }
  EXPECT_TRUE(saw_child);
}

TEST_F(ProfilerTest, UnpropagatedThreadStartsAtRoot) {
  std::uint64_t now = 0;
  SimClockFn clock = [&now] { return now; };
  {
    ScopedSpan parent("parent", clock);
    std::thread worker([&clock] { ScopedSpan orphan("orphan", clock); });
    worker.join();
  }
  ProfileSnapshot snap = Profiler::instance().snapshot();
  // Without LIBERATE_OBS_PROPAGATE the fresh thread's ambient node is the
  // root — the pre-fix behavior the propagation sites exist to avoid.
  EXPECT_NE(find(snap.root, "orphan"), nullptr);
}

class CostLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CostLedger::instance().reset();
  }
};

TEST_F(CostLedgerTest, TicksLandInTheAmbientPhaseAndNestedScopesOverride) {
  CostLedger::instance().tick(CostKind::kRounds, 1);  // no scope open
  {
    CostLedger::PhaseScope detection(CostPhase::kDetection);
    CostLedger::instance().tick(CostKind::kRounds, 2);
    {
      CostLedger::PhaseScope blinding(CostPhase::kBlinding);
      CostLedger::instance().tick(CostKind::kProbes, 3);
    }
    CostLedger::instance().tick(CostKind::kMatchOps, 4);  // restored
  }
  CostLedgerSnapshot snap = CostLedger::instance().snapshot();
  EXPECT_EQ(snap.at(CostPhase::kUnattributed, CostKind::kRounds), 1u);
  EXPECT_EQ(snap.at(CostPhase::kDetection, CostKind::kRounds), 2u);
  EXPECT_EQ(snap.at(CostPhase::kBlinding, CostKind::kProbes), 3u);
  EXPECT_EQ(snap.at(CostPhase::kDetection, CostKind::kMatchOps), 4u);
  EXPECT_EQ(snap.kind_total(CostKind::kRounds), 3u);
  EXPECT_EQ(snap.phase_total(CostPhase::kDetection), 6u);
  EXPECT_EQ(CostLedger::current_phase(), CostPhase::kUnattributed);
}

TEST_F(CostLedgerTest, PhasePropagatesAcrossThreads) {
  CostLedger::PhaseScope scope(CostPhase::kEvaluation);
  auto task = propagate_context(
      [] { CostLedger::instance().tick(CostKind::kProbes, 5); });
  std::thread worker(std::move(task));
  worker.join();
  CostLedgerSnapshot snap = CostLedger::instance().snapshot();
  EXPECT_EQ(snap.at(CostPhase::kEvaluation, CostKind::kProbes), 5u);
  EXPECT_EQ(snap.at(CostPhase::kUnattributed, CostKind::kProbes), 0u);
}

TEST_F(CostLedgerTest, ResetZeroesEveryCell) {
  {
    CostLedger::PhaseScope scope(CostPhase::kFleet);
    CostLedger::instance().tick(CostKind::kMutatedPackets, 9);
  }
  CostLedger::instance().reset();
  CostLedgerSnapshot snap = CostLedger::instance().snapshot();
  for (std::size_t p = 0; p < kCostPhases; ++p) {
    EXPECT_EQ(snap.phase_total(static_cast<CostPhase>(p)), 0u);
  }
}

TEST_F(CostLedgerTest, PrometheusExportEmitsEveryCellWithStableLabels) {
  {
    CostLedger::PhaseScope scope(CostPhase::kReadapt);
    CostLedger::instance().tick(CostKind::kRounds, 5);
  }
  const std::string text =
      prof::cost_ledger_prometheus(CostLedger::instance().snapshot());
  EXPECT_NE(text.find("# TYPE liberate_cost_total counter\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("liberate_cost_total{phase=\"readapt\",kind=\"rounds\"} 5\n"),
      std::string::npos);
  // One line per phase × kind cell plus the TYPE header, zeros included.
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 1 + kCostPhases * kCostKinds);
}

TEST_F(CostLedgerTest, JsonExportCarriesPhasesAndKindTotals) {
  {
    CostLedger::PhaseScope scope(CostPhase::kCharacterization);
    CostLedger::instance().tick(CostKind::kProbes, 21);
  }
  JsonWriter w;
  prof::write_cost_ledger_json(w, CostLedger::instance().snapshot());
  const std::string json = w.take();
  EXPECT_NE(json.find("\"characterization\":{\"rounds\":0,\"probes\":21"),
            std::string::npos);
  EXPECT_NE(json.find("\"totals\":{\"rounds\":0,\"probes\":21"),
            std::string::npos);
}

}  // namespace
}  // namespace liberate::obs
