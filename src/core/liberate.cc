#include "core/liberate.h"

#include "obs/obs.h"

namespace liberate::core {

SessionReport analyze(ProbeExecutor& executor,
                      const trace::ApplicationTrace& trace) {
  SessionReport report;

  // Phase spans are stamped with accumulated virtual time: each phase span
  // covers [virtual time burned before it, virtual time burned after it],
  // which is deterministic across pool sizes (unlike wall clock).
  auto virtual_us = [&report]() {
    return static_cast<std::uint64_t>((report.detection.virtual_seconds +
                                       report.characterization.virtual_seconds +
                                       report.evaluation.virtual_seconds) *
                                      1e6);
  };
  (void)virtual_us;

  // Phase 1: differentiation detection.
  {
    LIBERATE_OBS_SPAN("core.phase.detect", virtual_us);
    LIBERATE_COST_SCOPE(kDetection);
    report.detection = detect_differentiation(executor, trace);
  }
  if (report.detection.content_based) {
    // Phase 2: characterization.
    report.ran_characterization = true;
    CharacterizationOptions copts;
    copts.unique_port_per_round = true;  // harmless when not needed
    {
      LIBERATE_OBS_SPAN("core.phase.characterize", virtual_us);
      LIBERATE_COST_SCOPE(kCharacterization);
      report.characterization = characterize_classifier(executor, trace, copts);
    }
    // Phase 3: evasion evaluation (pruned production mode).
    {
      LIBERATE_OBS_SPAN("core.phase.evaluate", virtual_us);
      LIBERATE_COST_SCOPE(kEvaluation);
      report.evaluation = evaluate_suite(executor, report.characterization,
                                         trace, /*run_pruned=*/false);
    }
    report.selected_technique = report.evaluation.selected;
  }

  report.total_rounds = report.detection.rounds +
                        report.characterization.replay_rounds +
                        report.evaluation.replay_rounds;
  report.total_bytes = report.detection.bytes_used +
                       report.characterization.bytes_replayed +
                       report.evaluation.bytes_replayed;
  report.total_virtual_minutes = (report.detection.virtual_seconds +
                                  report.characterization.virtual_seconds +
                                  report.evaluation.virtual_seconds) /
                                 60.0;
  return report;
}

Liberate::Liberate(dpi::Environment& env, std::uint64_t seed)
    : runner_(env, seed) {}

std::unique_ptr<Deployment> Liberate::deploy(const SessionReport& report,
                                             netsim::NetworkPort& inner) const {
  if (!report.selected_technique) return nullptr;
  auto technique = instantiate(*report.selected_technique);
  if (!technique) return nullptr;
  return std::make_unique<Deployment>(inner, std::move(technique),
                                      deployment_context(report));
}

}  // namespace liberate::core
