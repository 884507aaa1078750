// Determinism / equivalence suite for the parallel replay engine.
//
// The contract under test: a round's outcome depends only on (WorldSpec,
// RoundRequest) — never on worker count, scheduling order, or whether the
// result came from the memo cache. Serial (inline) runs, 1-, 2- and
// 8-worker pools must produce byte-identical matching fields, technique
// verdicts and round counts for the full blinding + evaluation pipeline,
// across multiple seeds and environments; caching must change replay counts
// only, never results.
#include "core/liberate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/round_scheduler.h"
#include "dpi/match_program.h"
#include "trace/generators.h"
#include "util/strings.h"

namespace liberate::core {
namespace {

trace::ApplicationTrace trace_for(const std::string& environment) {
  // Small traces keep the probe counts low; each still trips its
  // environment's classifier (cloudfront / facebook keywords). TMUS's
  // usage-counter signal carries up to 25 KB of meter noise per round, so
  // its trace must be comfortably bigger than twice that.
  if (environment == "iran") return trace::facebook_trace();
  if (environment == "gfc") return trace::economist_trace();
  if (environment == "tmus") return trace::amazon_video_trace(96 * 1024);
  return trace::amazon_video_trace(8 * 1024);
}

/// Everything the pipeline decides, flattened to one comparable string.
struct AnalysisSummary {
  std::string fields;
  std::string verdicts;
  std::string selected;
  int characterization_rounds = 0;
  int evaluation_rounds = 0;
  bool operator==(const AnalysisSummary&) const = default;
};

std::string summarize_fields(const CharacterizationReport& report) {
  std::string out;
  for (const MatchingField& f : report.fields) {
    out += std::to_string(f.message_index) + ":" + std::to_string(f.offset) +
           ":" + std::to_string(f.length) + ":" +
           to_string(BytesView(f.content)) + "|";
  }
  out += " pos=" + std::to_string(report.position_sensitive);
  out += " limit=" + std::to_string(report.packet_limit.value_or(0));
  out += " all=" + std::to_string(report.inspects_all_packets);
  out += " port=" + std::to_string(report.port_sensitive);
  out += " hops=" + std::to_string(report.middlebox_hops.value_or(-1));
  return out;
}

std::string summarize_verdicts(const EvaluationResult& result) {
  std::string out;
  for (const TechniqueOutcome& o : result.outcomes) {
    out += o.technique + ":" + (o.pruned ? "p" : "-") +
           (o.evaded ? "E" : "-") + (o.changed_classification ? "C" : "-") +
           (o.signal_absent ? "S" : "-") + (o.completed ? "F" : "-") +
           (o.payload_intact ? "I" : "-") +
           (o.crafted_reached_server ? "R" : "-") + "|";
  }
  return out;
}

AnalysisSummary run_pipeline(RoundScheduler& scheduler,
                             const trace::ApplicationTrace& trace) {
  CharacterizationOptions copts;
  copts.unique_port_per_round = true;
  CharacterizationReport report =
      characterize_classifier(scheduler, trace, copts);
  EvaluationResult evaluation = evaluate_suite(scheduler, report, trace);
  AnalysisSummary s;
  s.fields = summarize_fields(report);
  s.verdicts = summarize_verdicts(evaluation);
  s.selected = evaluation.selected.value_or("(none)");
  s.characterization_rounds = report.replay_rounds;
  s.evaluation_rounds = evaluation.replay_rounds;
  return s;
}

AnalysisSummary run_with_workers(const std::string& environment,
                                 std::uint64_t seed, std::size_t workers,
                                 std::size_t cache_capacity = 0) {
  WorldSpec spec;
  spec.environment = environment;
  spec.seed = seed;
  RoundScheduler scheduler(spec, {.workers = workers,
                                  .cache_capacity = cache_capacity});
  return run_pipeline(scheduler, trace_for(environment));
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ParallelEquivalence, IdenticalAcrossWorkerCounts) {
  const auto& [environment, seed] = GetParam();
  AnalysisSummary serial = run_with_workers(environment, seed, 0);
  // A pipeline that found nothing would make the equivalence vacuous.
  EXPECT_NE(serial.fields.find(':'), std::string::npos)
      << "no matching fields found in " << environment;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    AnalysisSummary parallel = run_with_workers(environment, seed, workers);
    EXPECT_EQ(serial.fields, parallel.fields)
        << environment << " seed=" << seed << " workers=" << workers;
    EXPECT_EQ(serial.verdicts, parallel.verdicts)
        << environment << " seed=" << seed << " workers=" << workers;
    EXPECT_EQ(serial.selected, parallel.selected)
        << environment << " seed=" << seed << " workers=" << workers;
    EXPECT_EQ(serial.characterization_rounds, parallel.characterization_rounds);
    EXPECT_EQ(serial.evaluation_rounds, parallel.evaluation_rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndEnvironments, ParallelEquivalence,
    ::testing::Combine(::testing::Values("testbed", "tmus", "iran"),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{7},
                                         std::uint64_t{42})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelReplay, CacheChangesReplayCountsNotResults) {
  WorldSpec spec;
  spec.environment = "testbed";
  spec.seed = 1;
  const auto trace = trace_for(spec.environment);

  RoundScheduler cached(spec, {.workers = 2, .cache_capacity = 8192});
  RoundScheduler uncached(spec, {.workers = 2, .cache_capacity = 0});

  AnalysisSummary with_cache = run_pipeline(cached, trace);
  AnalysisSummary without_cache = run_pipeline(uncached, trace);
  EXPECT_EQ(with_cache, without_cache);

  // Re-analysis (the §4.2 "rules changed?" re-characterization path) repeats
  // every probe: the cache answers all of them without a single new replay…
  const std::uint64_t executed_after_first = cached.rounds_executed();
  AnalysisSummary again = run_pipeline(cached, trace);
  EXPECT_EQ(with_cache, again);
  EXPECT_EQ(cached.rounds_executed(), executed_after_first);
  EXPECT_GT(cached.rounds_from_cache(), 0u);

  // …while the uncached scheduler replays the whole pipeline again.
  const std::uint64_t uncached_first = uncached.rounds_executed();
  AnalysisSummary uncached_again = run_pipeline(uncached, trace);
  EXPECT_EQ(without_cache, uncached_again);
  EXPECT_EQ(uncached.rounds_executed(), 2 * uncached_first);
  // Logical round counts (the §6 cost accounting) are identical either way.
  EXPECT_EQ(again.characterization_rounds, with_cache.characterization_rounds);
  EXPECT_EQ(again.evaluation_rounds, with_cache.evaluation_rounds);
}

// The compiled matcher must be invisible to analysis results: the full
// pipeline summary is byte-identical across {reference, compiled} matcher
// backends crossed with {serial, 2, 8} workers. This is the end-to-end leg
// of the equivalence contract (tests/dpi/match_program_diff_test.cc proves
// it per-evaluation; this proves no call site depends on the backend).
TEST(BackendEquivalence, AnalysisIdenticalAcrossBackendsAndWorkers) {
  struct BackendGuard {
    ~BackendGuard() { dpi::set_match_backend(dpi::MatchBackend::kCompiled); }
  } guard;
  AnalysisSummary baseline;
  bool first = true;
  for (dpi::MatchBackend backend :
       {dpi::MatchBackend::kReference, dpi::MatchBackend::kCompiled}) {
    dpi::set_match_backend(backend);
    for (std::size_t workers : {std::size_t{0}, std::size_t{2},
                                std::size_t{8}}) {
      AnalysisSummary s = run_with_workers("testbed", 1, workers);
      if (first) {
        // Vacuous-equivalence guard: the pipeline must have found fields.
        EXPECT_NE(s.fields.find(':'), std::string::npos);
        baseline = s;
        first = false;
      } else {
        EXPECT_EQ(baseline, s)
            << "backend="
            << (backend == dpi::MatchBackend::kCompiled ? "compiled"
                                                        : "reference")
            << " workers=" << workers;
      }
    }
  }
}

TEST(ParallelReplay, IsolatedRoundIsBitwiseRepeatable) {
  WorldSpec spec;
  spec.environment = "tmus";  // noisiest environment (usage-counter signal)
  spec.seed = 9;
  RoundRequest req;
  req.trace = trace::amazon_video_trace(8 * 1024);
  RoundResult a = run_isolated_round(spec, req);
  RoundResult b = run_isolated_round(spec, req);
  EXPECT_EQ(a.differentiated, b.differentiated);
  EXPECT_EQ(a.outcome.completed, b.outcome.completed);
  EXPECT_EQ(a.outcome.usage_delta, b.outcome.usage_delta);
  EXPECT_EQ(a.outcome.goodput_mbps, b.outcome.goodput_mbps);
  EXPECT_EQ(a.outcome.rsts_at_client, b.outcome.rsts_at_client);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
}

TEST(ParallelReplay, FingerprintSeparatesMutations) {
  WorldSpec spec;
  RoundRequest base;
  base.trace = trace::facebook_trace();
  Fingerprint f0 = round_fingerprint(spec, base);

  RoundRequest ttl = base;
  ttl.match_packet_ttl = 4;
  RoundRequest port = base;
  port.server_port_override = 8080;
  RoundRequest technique = base;
  technique.technique = "flush/ttl-limited-rst-after";
  RoundRequest payload = base;
  payload.trace.messages[0].payload[0] ^= 0xFF;
  WorldSpec other_env = spec;
  other_env.environment = "iran";

  EXPECT_EQ(f0, round_fingerprint(spec, base));
  EXPECT_NE(f0, round_fingerprint(spec, ttl));
  EXPECT_NE(f0, round_fingerprint(spec, port));
  EXPECT_NE(f0, round_fingerprint(spec, technique));
  EXPECT_NE(f0, round_fingerprint(spec, payload));
  EXPECT_NE(f0, round_fingerprint(other_env, base));
}

TEST(ParallelReplay, ParallelDetectionMatchesSequentialVerdicts) {
  for (const char* environment : {"testbed", "iran", "sprint"}) {
    WorldSpec spec;
    spec.environment = environment;
    RoundScheduler scheduler(spec, {.workers = 2});
    auto trace = trace_for(environment);
    DetectionResult parallel = detect_differentiation(scheduler, trace);

    auto env = dpi::make_environment(environment);
    ReplayRunner runner(*env);
    DetectionResult sequential = detect_differentiation(runner, trace);
    EXPECT_EQ(parallel.differentiation, sequential.differentiation)
        << environment;
    EXPECT_EQ(parallel.content_based, sequential.content_based) << environment;
    EXPECT_EQ(parallel.rounds, sequential.rounds) << environment;
  }
}

TEST(ParallelReplay, ParallelBlindingMatchesSequentialFields) {
  // The kDirect testbed signal is noise-free: the blinding search must find
  // the exact same matching fields in one shared world as in a world per
  // round.
  auto trace = trace::amazon_video_trace(8 * 1024);

  auto env = dpi::make_testbed();
  ReplayRunner runner(*env);
  CharacterizationReport sequential = characterize_classifier(
      runner, trace, {.unique_port_per_round = true});

  WorldSpec spec;
  spec.environment = "testbed";
  RoundScheduler scheduler(spec, {.workers = 8});
  CharacterizationReport parallel = characterize_classifier(
      scheduler, trace, {.unique_port_per_round = true});

  EXPECT_EQ(summarize_fields(sequential), summarize_fields(parallel));
}

// One pipeline, two executors: a shared world (ReplayRunner, every round in
// one environment) and isolated worlds (a serial RoundScheduler) must reach
// the same verdicts with the same detection and evaluation costs.
// Characterization rounds differ by exactly the isolated side's
// speculation: the MTU-prepend ladder past the packet limit, and the rest of
// the TTL wave that found the middlebox.
TEST(ParallelReplay, SharedAndIsolatedExecutorsAgree) {
  constexpr int kTtlWave = 8;
  const CharacterizationOptions defaults;
  for (const char* environment :
       {"testbed", "tmus", "gfc", "iran", "att", "sprint"}) {
    SCOPED_TRACE(environment);
    const auto trace = trace_for(environment);
    auto env = dpi::make_environment(environment);
    ReplayRunner runner(*env);
    SessionReport shared = analyze(runner, trace);

    WorldSpec spec;
    spec.environment = environment;
    RoundScheduler scheduler(spec);
    SessionReport isolated = analyze(scheduler, trace);

    EXPECT_EQ(shared.detection.differentiation,
              isolated.detection.differentiation);
    EXPECT_EQ(shared.detection.content_based, isolated.detection.content_based);
    EXPECT_EQ(shared.detection.used_randomization_fallback,
              isolated.detection.used_randomization_fallback);
    EXPECT_EQ(summarize_fields(shared.characterization),
              summarize_fields(isolated.characterization));
    EXPECT_EQ(summarize_verdicts(shared.evaluation),
              summarize_verdicts(isolated.evaluation));
    EXPECT_EQ(shared.selected_technique, isolated.selected_technique);
    EXPECT_EQ(shared.detection.rounds, isolated.detection.rounds);
    EXPECT_EQ(shared.evaluation.replay_rounds,
              isolated.evaluation.replay_rounds);

    const CharacterizationReport& c = isolated.characterization;
    int speculation = 0;
    if (c.packet_limit) {
      speculation += static_cast<int>(defaults.max_prepend_packets -
                                      *c.packet_limit);
    }
    if (c.middlebox_hops) {
      const int wave_end = std::min(
          (*c.middlebox_hops - 1) / kTtlWave * kTtlWave + kTtlWave,
          static_cast<int>(defaults.max_ttl_probe));
      speculation += wave_end - *c.middlebox_hops;
    }
    EXPECT_EQ(isolated.characterization.replay_rounds -
                  shared.characterization.replay_rounds,
              speculation)
        << "shared " << shared.characterization.replay_rounds << ", isolated "
        << c.replay_rounds;
  }
}

TEST(ParallelReplay, AnalyzeParallelFullSession) {
  WorldSpec spec;
  spec.environment = "testbed";
  RoundScheduler scheduler(spec, {.workers = 8});
  auto trace = trace_for(spec.environment);
  SessionReport report = analyze(scheduler, trace);
  EXPECT_TRUE(report.detection.content_based);
  EXPECT_TRUE(report.ran_characterization);
  EXPECT_TRUE(report.selected_technique.has_value());
  EXPECT_EQ(report.total_rounds,
            report.detection.rounds + report.characterization.replay_rounds +
                report.evaluation.replay_rounds);
  EXPECT_GT(report.total_bytes, 0u);
  EXPECT_GT(report.total_virtual_minutes, 0.0);
}

}  // namespace
}  // namespace liberate::core
