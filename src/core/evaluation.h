// evaluation.h — evasion evaluation (§4.3 / Fig. 1 third stage).
//
// Runs the (pruned, ordered) technique suite against the environment and
// records, per technique: CC? (classification changed — the differentiation
// signal disappeared while the application data still arrived intact), RS?
// (the crafted packets reached the server's wire), and the per-flow cost.
// This is the machinery behind Table 3.
#pragma once

#include <optional>

#include "core/characterization.h"
#include "core/evasion/registry.h"
#include "core/replay.h"

namespace liberate::core {

struct TechniqueOutcome {
  std::string technique;
  Category category = Category::kInertInsertion;
  bool pruned = false;          // skipped: characterization proved it useless
  /// CC? — the differentiation signal disappeared and the exchange still
  /// completed (Table 3's "Changes Classification").
  bool changed_classification = false;
  /// CC? AND the delivered application bytes were intact: the technique is
  /// actually deployable unilaterally.
  bool evaded = false;
  bool signal_absent = false;   // policy absent (even if payload broke)
  bool payload_intact = false;
  bool completed = false;
  bool crafted_reached_server = false;  // RS?
  bool crafted_reassembled = false;     // RS footnote 2
  bool triggered_blocking = false;      // Iran note 3: the inert packet
                                        // itself got the flow blocked
  Overhead overhead;
};

struct EvaluationResult {
  std::vector<TechniqueOutcome> outcomes;
  std::optional<std::string> selected;  // cheapest working technique
  int replay_rounds = 0;
  std::uint64_t bytes_replayed = 0;
  double virtual_seconds = 0;
};

/// The TechniqueContext evaluation and deployment derive from a
/// characterization: matching snippets, the decoy payload, and the
/// localized middlebox TTL.
TechniqueContext technique_context(const CharacterizationReport& report);

/// Evaluate the whole (pruned, ordered) suite as one wave, then select the
/// cheapest technique that evaded. Pruned techniques are reported without a
/// round unless `run_pruned` is set (the full Table 3 matrix needs every
/// cell; the production path skips them — §5.2 "Efficient evasion
/// testing"); transport-inapplicable techniques never run.
EvaluationResult evaluate_suite(ProbeExecutor& executor,
                                const CharacterizationReport& report,
                                const trace::ApplicationTrace& trace,
                                bool run_pruned = false);

/// Single-technique experiments on a shared world (the §6 and Figure 4
/// sweeps): any Technique instance, under a context the caller may tune.
class EvasionEvaluator {
 public:
  EvasionEvaluator(ReplayRunner& runner, const CharacterizationReport& report);

  /// Evaluate one technique (one replay round).
  TechniqueOutcome evaluate_one(Technique& technique,
                                const trace::ApplicationTrace& trace);

  const TechniqueContext& context() const { return context_; }
  /// Override pieces of the context (e.g. pause length sweeps).
  TechniqueContext& mutable_context() { return context_; }

 private:
  ReplayRunner& runner_;
  const CharacterizationReport& report_;
  TechniqueContext context_;
  std::uint16_t next_port_ = 27000;
};

/// Rank techniques by cost: fewer extra seconds first, then fewer extra
/// packets/bytes (deployment picks "the most efficient, successful
/// technique", §4.4).
bool cheaper(const Overhead& a, const Overhead& b);

}  // namespace liberate::core
