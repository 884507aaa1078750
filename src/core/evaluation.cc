#include "core/evaluation.h"

#include <algorithm>

#include "obs/obs.h"

namespace liberate::core {

namespace {

/// A technique's outcome row: name, category and cost under `context`,
/// plus the verdicts read off its round when it ran one.
TechniqueOutcome technique_outcome(const Technique& technique,
                                   const TechniqueContext& context,
                                   const RoundResult* round) {
  TechniqueOutcome outcome;
  outcome.technique = technique.name();
  outcome.category = technique.category();
  outcome.overhead = technique.overhead(context);
  if (round == nullptr) return outcome;
  const ReplayOutcome& replay = round->outcome;
  outcome.signal_absent = !round->differentiated;
  outcome.payload_intact = replay.payload_intact;
  outcome.completed = replay.completed;
  outcome.changed_classification = outcome.signal_absent && replay.completed;
  outcome.evaded = outcome.changed_classification && replay.payload_intact;
  outcome.crafted_reached_server = replay.crafted_at_server > 0;
  outcome.crafted_reassembled = replay.crafted_reassembled;
  outcome.triggered_blocking =
      technique.category() == Category::kInertInsertion && replay.blocked;
  return outcome;
}

}  // namespace

bool cheaper(const Overhead& a, const Overhead& b) {
  if (a.extra_seconds != b.extra_seconds) {
    return a.extra_seconds < b.extra_seconds;
  }
  if (a.extra_packets != b.extra_packets) {
    return a.extra_packets < b.extra_packets;
  }
  return a.extra_bytes < b.extra_bytes;
}

TechniqueContext technique_context(const CharacterizationReport& report) {
  TechniqueContext context;
  context.matching_snippets = report.snippets();
  context.decoy_payload = decoy_request_payload();
  if (report.middlebox_hops) {
    context.middlebox_ttl = static_cast<std::uint8_t>(*report.middlebox_hops);
  }
  return context;
}

EvaluationResult evaluate_suite(ProbeExecutor& executor,
                                const CharacterizationReport& report,
                                const trace::ApplicationTrace& trace,
                                bool run_pruned) {
  EvaluationResult result;
  const TechniqueContext context = technique_context(report);
  auto suite = build_full_suite();
  PruningFacts facts;
  facts.inspects_all_packets = report.inspects_all_packets;
  facts.udp_flow = trace.transport == trace::Transport::kUdp;
  std::vector<Technique*> ordered = ordered_suite(suite, facts);

  // Every outcome slot and its round (if any), pruned suite entries first,
  // then the ordered suite. The entire round list is one wave.
  struct Slot {
    Technique* technique = nullptr;
    bool pruned = false;
    int round_index = -1;  // -1: not replayed (pruned, matrix mode off)
  };
  std::vector<Slot> slots;
  std::vector<RoundRequest> wave;
  // Port handling mirrors characterization: a port-sensitive classifier
  // only reacts on the trace port; otherwise fresh ports avoid escalation.
  std::uint16_t next_port = 27000;
  auto make_round = [&](Technique* t) {
    RoundRequest req;
    req.trace = trace;
    req.technique = t->name();
    req.context = context;
    if (!report.port_sensitive) req.server_port_override = next_port++;
    wave.push_back(std::move(req));
    return static_cast<int>(wave.size()) - 1;
  };
  for (const auto& owned : suite) {
    Technique* t = owned.get();
    if (std::find(ordered.begin(), ordered.end(), t) != ordered.end()) {
      continue;
    }
    Slot slot{t, /*pruned=*/true};
    bool applicable =
        facts.udp_flow ? t->applies_to_udp() : t->applies_to_tcp();
    if (run_pruned && applicable) slot.round_index = make_round(t);
    slots.push_back(slot);
  }
  for (Technique* t : ordered) slots.push_back(Slot{t, false, make_round(t)});

  std::vector<RoundResult> rounds = executor.run_batch(wave);
  ProbeCost cost;
  cost.add(rounds);

  for (const Slot& slot : slots) {
    const RoundResult* round =
        slot.round_index >= 0
            ? &rounds[static_cast<std::size_t>(slot.round_index)]
            : nullptr;
    TechniqueOutcome outcome =
        technique_outcome(*slot.technique, context, round);
    outcome.pruned = slot.pruned;
    LIBERATE_COUNTER_ADD("core.techniques_evaluated", 1);
    {
      const char* verdict = round == nullptr ? "pruned"
                            : outcome.evaded ? "evaded"
                                             : "failed";
      std::uint64_t ts_us =
          round != nullptr
              ? static_cast<std::uint64_t>(round->virtual_seconds * 1e6)
              : 0;
      LIBERATE_OBS_EVENT(
          ts_us, "core", "technique_evaluated",
          liberate::obs::fv("technique", outcome.technique),
          liberate::obs::fv("verdict", verdict),
          liberate::obs::fv("cost_extra_bytes", outcome.overhead.extra_bytes),
          liberate::obs::fv("cost_extra_packets",
                            outcome.overhead.extra_packets));
      (void)verdict;
      (void)ts_us;
    }
    result.outcomes.push_back(outcome);
  }

  // Select the cheapest working technique (outcome order is deterministic,
  // so ties break identically on every executor).
  const TechniqueOutcome* best = nullptr;
  for (const auto& o : result.outcomes) {
    if (!o.evaded || o.pruned) continue;
    if (best == nullptr || cheaper(o.overhead, best->overhead)) best = &o;
  }
  if (best != nullptr) result.selected = best->technique;

  result.replay_rounds = cost.rounds;
  result.bytes_replayed = cost.bytes;
  result.virtual_seconds = cost.virtual_seconds;
  return result;
}

EvasionEvaluator::EvasionEvaluator(ReplayRunner& runner,
                                   const CharacterizationReport& report)
    : runner_(runner), report_(report), context_(technique_context(report)) {}

TechniqueOutcome EvasionEvaluator::evaluate_one(
    Technique& technique, const trace::ApplicationTrace& trace) {
  ReplayOptions opts;
  opts.technique = &technique;
  opts.context = context_;
  if (!report_.port_sensitive) opts.server_port_override = next_port_++;
  RoundResult round;
  round.outcome = runner_.run(trace, opts);
  round.differentiated = runner_.differentiated(round.outcome);
  return technique_outcome(technique, context_, &round);
}

}  // namespace liberate::core
