// skype_evasion — end-to-end Skype analysis with full telemetry.
//
// Runs the parallel analysis pipeline (detection -> characterization ->
// evasion evaluation) for a generated Skype trace against the testbed
// classifier, then emits two JSON documents:
//
//   ANALYSIS  {...}   — the analysis result alone. Deterministic and
//                       byte-identical across observability levels and pool
//                       sizes (the obs layer never feeds back into analysis).
//   TELEMETRY {...}   — the observability snapshot: packet counters from
//                       netsim, classifier match events from dpi, per-round
//                       latency histograms and cache hits from the
//                       scheduler, pool/cache stats from util. Empty-ish at
//                       LIBERATE_OBS_LEVEL=0 (macros compile to nothing).
//
// Build: cmake --build build && ./build/examples/skype_evasion
#include <cstdio>

#include "core/liberate.h"
#include "core/report_io.h"
#include "core/round_scheduler.h"
#include "obs/snapshot.h"
#include "trace/generators.h"

using namespace liberate;
using namespace liberate::core;

int main() {
  // Start from a clean slate so TELEMETRY reflects this run only.
  obs::reset_all();

  auto skype = trace::make_skype_trace({});
  std::printf("recorded %s: %zu messages, %zu bytes\n",
              skype.app_name.c_str(), skype.messages.size(),
              skype.total_bytes());

  WorldSpec spec;  // testbed classifier (STUN MS-SERVICE-QUALITY rule)
  RoundScheduler scheduler(spec, {.workers = 2, .cache_capacity = 8192});
  SessionReport report = analyze(scheduler, skype);

  std::printf("differentiation: %s  content-based: %s  selected: %s\n",
              report.detection.differentiation ? "yes" : "no",
              report.detection.content_based ? "yes" : "no",
              report.selected_technique.value_or("(none)").c_str());

  // Re-analysis (the §4.2 "have the rules changed?" path): every probe is
  // memoized, so this pass is answered from the cache — and must reproduce
  // the first report bit for bit.
  SessionReport again = analyze(scheduler, skype);
  std::printf("re-analysis: %d/%d rounds from cache, report identical: %s\n",
              static_cast<int>(scheduler.rounds_from_cache()),
              report.total_rounds + again.total_rounds,
              analysis_report_json(report) == analysis_report_json(again)
                  ? "yes"
                  : "NO");

  // The two documents, one per line, machine-splittable by prefix.
  std::printf("ANALYSIS %s\n", analysis_report_json(report).c_str());
  obs::Snapshot snap = obs::capture();
  std::printf("TELEMETRY %s\n", obs::to_json(snap).c_str());
  return 0;
}
