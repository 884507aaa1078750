// liberate.h — the lib·erate facade: the four automated phases of Fig. 1.
//
//   1. detection        — is this app's traffic differentiated, by content?
//   2. characterization — which bytes/positions/ports trigger it, where is
//                         the middlebox?
//   3. evasion eval     — which techniques defeat it, at what cost?
//   4. deployment       — wrap live traffic in the cheapest working
//                         technique; re-adapting when the classifier
//                         changes is deploy::incremental_readapt
//                         (deploy/recharacterize.h).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/detection.h"
#include "core/evaluation.h"

namespace liberate::core {

struct SessionReport {
  DetectionResult detection;
  bool ran_characterization = false;
  CharacterizationReport characterization;
  EvaluationResult evaluation;
  std::optional<std::string> selected_technique;

  // End-to-end cost accounting across all phases (§5.3).
  int total_rounds = 0;
  std::uint64_t total_bytes = 0;
  double total_virtual_minutes = 0;
};

/// Phases 1–3 end to end on any executor: detection, then (when the policy
/// keys on content) characterization and evaluation.
SessionReport analyze(ProbeExecutor& executor,
                      const trace::ApplicationTrace& trace);

/// The TechniqueContext a deployment derives from an analysis.
inline TechniqueContext deployment_context(const SessionReport& report) {
  return technique_context(report.characterization);
}

/// A deployed evasion: an EvasionShim bound to the selected technique, ready
/// to wrap a live application's NetworkPort (library/transparent-proxy
/// deployment). The shim co-owns the technique so redeploy() can swap it
/// mid-flow without dangling the pointer under packets in flight.
class Deployment {
 public:
  Deployment(netsim::NetworkPort& inner, std::unique_ptr<Technique> technique,
             TechniqueContext context)
      : shim_(std::make_unique<EvasionShim>(inner, nullptr,
                                            std::move(context))) {
    shim_->set_technique(std::shared_ptr<Technique>(std::move(technique)));
  }

  netsim::NetworkPort& port() { return *shim_; }
  EvasionShim& shim() { return *shim_; }
  const Technique* technique() const { return shim_->technique(); }
  /// Timing directives live applications must honor for flush techniques.
  TimingPlan timing() const {
    const Technique* t = shim_->technique();
    return t ? t->timing(shim_->context()) : TimingPlan{};
  }

  /// Runtime adaptation: point the live shim at a new technique/context.
  /// Flows already wrapped keep their per-flow state; the old technique
  /// stays alive until the last in-flight packet that borrowed it is gone.
  void redeploy(std::unique_ptr<Technique> technique,
                TechniqueContext context) {
    shim_->set_context(std::move(context));
    shim_->set_technique(std::shared_ptr<Technique>(std::move(technique)));
  }

 private:
  std::unique_ptr<EvasionShim> shim_;
};

class Liberate {
 public:
  explicit Liberate(dpi::Environment& env, std::uint64_t seed = 1);

  /// Run phases 1–3 for an application's recorded trace on this facade's
  /// shared world.
  SessionReport analyze(const trace::ApplicationTrace& trace) {
    return core::analyze(runner_, trace);
  }

  /// Build a deployment for live traffic from an analysis result. Returns
  /// nullptr when no technique worked (or none was needed).
  std::unique_ptr<Deployment> deploy(const SessionReport& report,
                                     netsim::NetworkPort& inner) const;

  /// Build a technique instance by suite name (nullptr if unknown). Public
  /// so the deployment control plane can walk cached technique rankings.
  std::unique_ptr<Technique> instantiate(const std::string& name) const {
    return make_technique(name);
  }

  ReplayRunner& runner() { return runner_; }

 private:
  ReplayRunner runner_;
};

}  // namespace liberate::core
