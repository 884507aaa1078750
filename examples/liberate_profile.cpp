// liberate_profile — continuous-profiling walkthrough: where do the rounds,
// packets, and match ops of an analysis actually go?
//
// Runs the parallel analysis pipeline for a generated trace, then prints:
//
//   ANALYSIS {...}       — the analysis result. Deterministic and
//                          byte-identical across observability levels,
//                          pool sizes, and match backends (CI diffs it
//                          between obs-level-0 and obs-level-2 builds).
//   PROFILE <stack> <n>  — collapsed-stack lines (self sim-clock us) from
//                          the span-fed hierarchical profiler; pipe the
//                          PROFILE lines (prefix stripped) into
//                          flamegraph.pl for an interactive flame graph.
//   COST phase=...       — the cost ledger's phase × kind matrix: rounds /
//                          probes / mutated packets / match ops attributed
//                          to detection, blinding, characterization,
//                          evaluation, readapt, fleet.
//
// PROFILE/COST lines only exist on instrumented builds; at obs level 0 the
// profiler and ledger are compiled away and only ANALYSIS is printed.
//
// Usage: liberate_profile [environment] [app]   (defaults: testbed skype)
#include <cstdio>
#include <string>

#include "core/liberate.h"
#include "core/report_io.h"
#include "core/round_scheduler.h"
#include "obs/level.h"
#include "trace/generators.h"

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
#include "obs/snapshot.h"
#endif

using namespace liberate;
using namespace liberate::core;

int main(int argc, char** argv) {
  const std::string environment = argc > 1 ? argv[1] : "testbed";
  const std::string app = argc > 2 ? argv[2] : "skype";

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
  obs::reset_all();  // profile/ledger reflect this run only
#endif

  trace::ApplicationTrace trace = app == "amazon"
                                      ? trace::amazon_video_trace(16 * 1024)
                                      : trace::make_skype_trace({});

  WorldSpec spec;
  spec.environment = environment;
  RoundScheduler scheduler(spec, {.workers = 2, .cache_capacity = 8192});
  SessionReport report = analyze(scheduler, trace);

  std::printf("ANALYSIS %s\n", analysis_report_json(report).c_str());

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
  // Collapsed stacks, deterministic (self sim-clock us): run
  //   ./liberate_profile | sed -n 's/^PROFILE //p' > stacks.collapsed
  //   flamegraph.pl stacks.collapsed > flame.svg
  const obs::prof::ProfileSnapshot prof =
      obs::prof::Profiler::instance().snapshot();
  std::string collapsed = obs::prof::profile_collapsed(
      prof, obs::prof::CollapsedMetric::kSelfSimUs);
  std::size_t pos = 0;
  while (pos < collapsed.size()) {
    std::size_t end = collapsed.find('\n', pos);
    if (end == std::string::npos) end = collapsed.size();
    std::printf("PROFILE %s\n", collapsed.substr(pos, end - pos).c_str());
    pos = end + 1;
  }
  std::printf("PROFILE.JSON %s\n",
              obs::prof::profile_to_json(prof, /*include_wall=*/false).c_str());
#endif

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
  const obs::CostLedgerSnapshot cost = obs::CostLedger::instance().snapshot();
  for (std::size_t p = 0; p < obs::kCostPhases; ++p) {
    const auto phase = static_cast<obs::CostPhase>(p);
    if (cost.phase_total(phase) == 0) continue;
    std::printf("COST phase=%s", obs::cost_phase_name(phase));
    for (std::size_t k = 0; k < obs::kCostKinds; ++k) {
      const auto kind = static_cast<obs::CostKind>(k);
      std::printf(" %s=%llu", obs::cost_kind_name(kind),
                  static_cast<unsigned long long>(cost.at(phase, kind)));
    }
    std::printf("\n");
  }
#endif
  return 0;
}
