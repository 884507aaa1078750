// Determinism of the exported profile tree and cost-ledger attribution: the
// collapsed stacks (names, call counts, sim-clock totals) and the per-phase
// round/probe counts must be byte-identical across worker counts and match
// backends, because everything they measure is sim-clock driven. Also the
// span-parent regression for work-stealing wave chunks: a round executed by
// a pool worker nests under the span that submitted the batch, never under
// whatever happens to be open on that worker, and never at the root.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/liberate.h"
#include "core/round_scheduler.h"
#include "dpi/match_program.h"
#include "obs/level.h"
#include "obs/prof/cost_ledger.h"
#include "obs/prof/export.h"
#include "obs/prof/profiler.h"
#include "obs/span.h"
#include "trace/generators.h"

namespace liberate::core {
namespace {

using obs::CostKind;
using obs::CostLedger;
using obs::CostLedgerSnapshot;
using obs::CostPhase;
using obs::prof::CollapsedMetric;
using obs::prof::Profiler;
using obs::prof::ProfileSnapshot;

struct BackendGuard {
  dpi::MatchBackend saved = dpi::match_backend();
  ~BackendGuard() { dpi::set_match_backend(saved); }
};

/// Everything deterministic the profiler + ledger export: collapsed stacks
/// by self sim-time and by call count (covers tree shape, names, counts and
/// sim totals; wall-clock is real time and deliberately excluded), plus the
/// per-phase totals of every backend-independent cost kind (match-op counts
/// are an engine-internal metric, not part of the determinism contract).
std::string obs_signature() {
  const ProfileSnapshot prof = Profiler::instance().snapshot();
  std::string sig = obs::prof::profile_collapsed(prof, CollapsedMetric::kSelfSimUs);
  sig += "--\n";
  sig += obs::prof::profile_collapsed(prof, CollapsedMetric::kCount);
  sig += "--\n";
  const CostLedgerSnapshot cost = CostLedger::instance().snapshot();
  for (std::size_t p = 0; p < obs::kCostPhases; ++p) {
    const auto phase = static_cast<CostPhase>(p);
    sig += obs::cost_phase_name(phase);
    for (CostKind kind : {CostKind::kRounds, CostKind::kProbes,
                          CostKind::kMutatedPackets}) {
      sig += " " + std::string(obs::cost_kind_name(kind)) + "=" +
             std::to_string(cost.at(phase, kind));
    }
    sig += "\n";
  }
  return sig;
}

std::string analyze_and_sign(std::size_t workers, dpi::MatchBackend backend) {
  BackendGuard guard;
  dpi::set_match_backend(backend);
  Profiler::instance().reset();
  CostLedger::instance().reset();
  RoundScheduler scheduler(WorldSpec{},
                           {.workers = workers, .cache_capacity = 8192});
  analyze(scheduler, trace::make_skype_trace({}));
  return obs_signature();
}

TEST(ProfileDeterminism, TreeAndLedgerIdenticalAcrossWorkersAndBackends) {
#if LIBERATE_OBS_LEVEL < LIBERATE_OBS_LEVEL_FULL
  GTEST_SKIP() << "spans/ticks compiled out below obs level 2";
#else
  const std::string reference =
      analyze_and_sign(0, dpi::MatchBackend::kReference);
  ASSERT_NE(reference.find("core.round"), std::string::npos);
  ASSERT_NE(reference.find("detection rounds="), std::string::npos);
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(analyze_and_sign(workers, dpi::MatchBackend::kReference),
              reference)
        << "reference backend, workers=" << workers;
  }
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(analyze_and_sign(workers, dpi::MatchBackend::kCompiled),
              reference)
        << "compiled backend, workers=" << workers;
  }
#endif
}

std::vector<RoundRequest> distinct_requests(int n, std::size_t base_bytes) {
  std::vector<RoundRequest> reqs;
  for (int i = 0; i < n; ++i) {
    RoundRequest req;
    // Distinct sizes → distinct fingerprints → no coalescing/cache hits.
    req.trace = trace::amazon_video_trace(base_bytes + 512 * i);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

/// The PR 6 work-stealing regression: every core.round span of a batch
/// submitted while a span is open must name that span as its parent — on a
/// stealing pool worker exactly as in serial mode.
TEST(ProfileDeterminism, SpanParentNestingSurvivesWaveChunkStealing) {
#if LIBERATE_OBS_LEVEL < LIBERATE_OBS_LEVEL_FULL
  GTEST_SKIP() << "spans compiled out below obs level 2";
#else
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    obs::SpanLog::instance().reset();
    Profiler::instance().reset();
    RoundScheduler scheduler(WorldSpec{},
                             {.workers = workers, .cache_capacity = 0});

    std::uint64_t now = 0;
    obs::SimClockFn clock = [&now] { return now; };
    std::uint64_t parent_id = 0;
    {
      obs::ScopedSpan parent("test.parent", clock);
      parent_id = parent.id();
      scheduler.run_batch(distinct_requests(4, 4 * 1024));
    }
    int rounds_seen = 0;
    for (const obs::SpanRecord& s : obs::SpanLog::instance().snapshot()) {
      if (s.name != "core.round") continue;
      ++rounds_seen;
      EXPECT_EQ(s.parent_id, parent_id) << "workers=" << workers;
    }
    EXPECT_EQ(rounds_seen, 4) << "workers=" << workers;

    // Without an open span the rounds are root spans — a worker must not
    // leak a parent from the previous batch either.
    obs::SpanLog::instance().reset();
    scheduler.run_batch(distinct_requests(4, 24 * 1024));
    rounds_seen = 0;
    for (const obs::SpanRecord& s : obs::SpanLog::instance().snapshot()) {
      if (s.name != "core.round") continue;
      ++rounds_seen;
      EXPECT_EQ(s.parent_id, 0u) << "workers=" << workers;
    }
    EXPECT_EQ(rounds_seen, 4) << "workers=" << workers;
  }
#endif
}

}  // namespace
}  // namespace liberate::core
