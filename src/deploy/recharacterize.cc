#include "deploy/recharacterize.h"

#include "core/blinding.h"
#include "obs/obs.h"

namespace liberate::deploy {

namespace {

/// Rebuild a SessionReport from cached knowledge (the cheap paths never run
/// detection/characterization, but downstream consumers — deploy(),
/// reporting — expect the usual shape).
core::SessionReport report_from_cached(const CachedCharacterization& cached,
                                       const std::string& technique) {
  core::SessionReport report;
  report.detection.differentiation = true;
  report.detection.content_based = true;
  report.ran_characterization = true;
  report.characterization = cached.characterization();
  if (!technique.empty()) report.selected_technique = technique;
  return report;
}

}  // namespace

const char* readapt_path_name(ReadaptPath path) {
  switch (path) {
    case ReadaptPath::kStillWorking:
      return "still-working";
    case ReadaptPath::kPolicyGone:
      return "policy-gone";
    case ReadaptPath::kFingerprintMatched:
      return "fingerprint-matched";
    case ReadaptPath::kVerifiedCached:
      return "verified-cached";
    case ReadaptPath::kFullAnalysis:
      return "full-analysis";
  }
  return "unknown";
}

ReadaptOutcome incremental_readapt(core::Liberate& lib,
                                   const trace::ApplicationTrace& trace,
                                   const CachedCharacterization& cached,
                                   ClassifierFingerprintCache* cache,
                                   const ReadaptHooks* hooks) {
  LIBERATE_COST_SCOPE(kReadapt);
  core::ReplayRunner& runner = lib.runner();
  const int rounds0 = runner.rounds();
  const std::uint64_t bytes0 = runner.bytes_offered();
  const double t0 = runner.virtual_seconds_elapsed();

  ReadaptOutcome result;
  // Stage intervals partition [rounds0, rounds()], so the ladder breakdown
  // always sums to the report's total_rounds.
  int stage_start = rounds0;
  auto end_stage = [&](const char* stage) {
    result.ladder.push_back({stage, runner.rounds() - stage_start});
    stage_start = runner.rounds();
  };
  const core::TechniqueContext ctx = cached.context();
  // Fresh server ports per probe unless the classifier is port-bound
  // (mirrors evaluation: avoids GFC-style endpoint escalation polluting
  // the verdicts).
  std::uint16_t next_port = 29000;
  auto probe = [&](const trace::ApplicationTrace& t,
                   core::Technique* technique) {
    LIBERATE_COST_TICK(kProbes, 1);
    core::ReplayOptions opts;
    opts.technique = technique;
    opts.context = ctx;
    if (!cached.port_sensitive) opts.server_port_override = next_port++;
    core::ReplayOutcome outcome = runner.run(t, opts);
    struct Verdict {
      bool differentiated;
      bool works;  // evaded, with the exchange complete and intact
    };
    const bool differentiated = runner.differentiated(outcome);
    return Verdict{differentiated, !differentiated && outcome.completed &&
                                       outcome.payload_intact};
  };
  auto finish = [&](ReadaptPath path, const std::string& technique,
                    core::SessionReport report, CachedCharacterization next) {
    result.path = path;
    result.technique = technique;
    if (result.probed_ambiguity) next.ambiguity = result.probed_ambiguity;
    // The deployment runs the working technique first, and the two exits
    // that learned something store exactly that entry: a later warm deploy
    // must not start with a technique that just failed here.
    rank_first(next.ranking, technique);
    if (cache != nullptr && (path == ReadaptPath::kFingerprintMatched ||
                             path == ReadaptPath::kFullAnalysis)) {
      cache->store(next);
    }
    result.deployed = std::move(next);
    result.report = std::move(report);
    result.report.total_rounds = runner.rounds() - rounds0;
    result.report.total_bytes = runner.bytes_offered() - bytes0;
    result.report.total_virtual_minutes =
        (runner.virtual_seconds_elapsed() - t0) / 60.0;
    LIBERATE_COUNTER_ADD("deploy.readapt.total", 1);
    LIBERATE_HDR_RECORD("deploy.readapt.rounds", result.report.total_rounds);
    LIBERATE_OBS_EVENT(
        static_cast<std::uint64_t>(runner.virtual_seconds_elapsed() * 1e6),
        "deploy", "readapt", obs::fv("path", readapt_path_name(path)),
        obs::fv("technique", technique),
        obs::fv("rounds",
                static_cast<std::uint64_t>(result.report.total_rounds)));
    return result;
  };

  // Level 1: is the deployed technique actually broken? One round. The
  // drift monitor works on live-traffic statistics; this is the controlled
  // confirmation.
  const std::string deployed =
      cached.ranking.empty() ? std::string() : cached.ranking.front().name;
  if (!deployed.empty()) {
    auto technique = lib.instantiate(deployed);
    if (technique) {
      auto v = probe(trace, technique.get());
      end_stage("still-working");
      if (v.works) {
        return finish(ReadaptPath::kStillWorking, deployed,
                      report_from_cached(cached, deployed), cached);
      }
    }
  }

  // Level 2: does the policy still exist at all? One plain round.
  {
    auto v = probe(trace, nullptr);
    end_stage("policy-gone");
    if (!v.differentiated) {
      core::SessionReport report = report_from_cached(cached, "");
      report.detection.differentiation = false;
      report.detection.content_based = false;
      return finish(ReadaptPath::kPolicyGone, "", std::move(report), cached);
    }
  }

  // Level 3 (fingerprint-verify, hooks only): probe the live classifier's
  // ambiguity digest and look for a known implementation that resolves
  // every discrepancy the same way. A swap to an already-fingerprinted
  // engine resolves here in ~one replay round — the probe flows run in
  // isolated worlds and are accounted separately.
  if (hooks != nullptr && hooks->probe_ambiguity && cache != nullptr) {
    fingerprint::AmbiguityProbeResult probed = hooks->probe_ambiguity();
    result.probe_flows = probed.probe_flows;
    result.probed_ambiguity = probed.digest;
    LIBERATE_COUNTER_ADD("deploy.readapt.ambiguity_probes",
                         probed.probe_flows);
    const CachedCharacterization* match =
        cache->nearest_by_ambiguity(probed.digest, cached.app,
                                    hooks->max_distance)
            .first;
    if (match != nullptr) {
      result.matched_environment = match->environment;
      for (const RankedTechnique& rt : match->ranking) {
        if (rt.name == deployed) continue;  // already failed level 1
        auto technique = lib.instantiate(rt.name);
        if (!technique) continue;
        auto v = probe(trace, technique.get());
        if (!v.works) continue;
        end_stage("fingerprint-verify");
        // Adopt the matched implementation's knowledge for this
        // environment so the next drift is an exact warm hit.
        CachedCharacterization adopted = *match;
        adopted.environment = cached.environment;
        core::SessionReport report = report_from_cached(adopted, rt.name);
        LIBERATE_COUNTER_ADD("deploy.readapt.fingerprint_matched", 1);
        return finish(ReadaptPath::kFingerprintMatched, rt.name,
                      std::move(report), std::move(adopted));
      }
    }
    end_stage("fingerprint-verify");
  }

  // Level 4: targeted blinding probes — one per cached field. A field is
  // still a matching field iff blinding it kills classification; any field
  // that stays classified means the rule set changed under us.
  bool fingerprint_ok = true;
  for (const core::MatchingField& field : cached.fields) {
    if (field.message_index >= trace.messages.size()) {
      fingerprint_ok = false;
      break;
    }
    trace::ApplicationTrace blinded = core::blind_range(
        trace, field.message_index, field.offset, field.length);
    auto v = probe(blinded, nullptr);
    if (v.differentiated) {
      fingerprint_ok = false;
      break;
    }
  }
  result.fingerprint_verified = fingerprint_ok && !cached.fields.empty();
  end_stage("field-verification");

  // Level 5: fingerprint held — the rules are the ones we characterized, so
  // the cached ranking is still meaningful. Walk it cheapest-first; the
  // deployed (front) technique already failed level 1.
  if (result.fingerprint_verified) {
    for (std::size_t i = deployed.empty() ? 0 : 1; i < cached.ranking.size();
         ++i) {
      auto technique = lib.instantiate(cached.ranking[i].name);
      if (!technique) continue;
      auto v = probe(trace, technique.get());
      if (v.works) {
        end_stage("ranking-walk");
        return finish(ReadaptPath::kVerifiedCached, cached.ranking[i].name,
                      report_from_cached(cached, cached.ranking[i].name),
                      cached);
      }
    }
    end_stage("ranking-walk");
  }

  // Level 6: the classifier changed beyond the cached knowledge (or every
  // cached technique died). Full analysis, and refresh the cache.
  core::SessionReport fresh = lib.analyze(trace);
  end_stage("full-analysis");
  CachedCharacterization refreshed =
      make_cached_characterization(cached.environment, cached.app, fresh);
  std::string selected = fresh.selected_technique.value_or("");
  return finish(ReadaptPath::kFullAnalysis, selected, std::move(fresh),
                std::move(refreshed));
}

}  // namespace liberate::deploy
