// parallel_analysis.h — retired names for the analysis phases on a
// RoundScheduler. Each phase is written once against ProbeExecutor
// (core/liberate.h); these forwards keep older callers compiling.
#pragma once

#include "core/liberate.h"
#include "core/round_scheduler.h"

namespace liberate::core {

inline DetectionResult detect_differentiation_parallel(
    RoundScheduler& scheduler, const trace::ApplicationTrace& trace) {
  return detect_differentiation(scheduler, trace);
}

inline CharacterizationReport characterize_classifier_parallel(
    RoundScheduler& scheduler, const trace::ApplicationTrace& trace,
    const CharacterizationOptions& options = {}) {
  return characterize_classifier(scheduler, trace, options);
}

inline EvaluationResult evaluate_parallel(RoundScheduler& scheduler,
                                          const CharacterizationReport& report,
                                          const trace::ApplicationTrace& trace,
                                          bool run_pruned = false) {
  return evaluate_suite(scheduler, report, trace, run_pruned);
}

inline SessionReport analyze_parallel(RoundScheduler& scheduler,
                                      const trace::ApplicationTrace& trace) {
  return analyze(scheduler, trace);
}

}  // namespace liberate::core
