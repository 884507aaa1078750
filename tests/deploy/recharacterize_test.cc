// Incremental re-characterization: each level of the verification pyramid
// exercised against a live testbed world, with the cost-accounting claims
// (O(verification), not O(analysis)) asserted from the runner's counters.
#include <gtest/gtest.h>

#include "deploy/recharacterize.h"
#include "dpi/normalizer.h"
#include "dpi/profiles.h"
#include "trace/generators.h"

namespace liberate::deploy {
namespace {

/// An entry's canonical JSON: compares every field a cache would keep.
std::string entry_json(const CachedCharacterization& entry) {
  ClassifierFingerprintCache cache;
  cache.store(entry);
  return cache.to_json();
}

struct Rig {
  std::unique_ptr<dpi::Environment> env = dpi::make_testbed();
  core::Liberate lib{*env};
  trace::ApplicationTrace trace = trace::amazon_video_trace(8 * 1024);
  core::SessionReport analysis;
  CachedCharacterization cached;

  Rig() {
    analysis = lib.analyze(trace);
    cached = make_cached_characterization("testbed", trace.app_name, analysis);
  }
};

TEST(Recharacterize, CacheEntryRanksSelectedTechniqueFirst) {
  Rig rig;
  ASSERT_TRUE(rig.analysis.selected_technique.has_value());
  ASSERT_FALSE(rig.cached.ranking.empty());
  EXPECT_EQ(rig.cached.ranking.front().name,
            *rig.analysis.selected_technique);
  EXPECT_FALSE(rig.cached.fields.empty());
  EXPECT_GT(rig.cached.ranking.size(), 3u);  // testbed has many evaders
}

TEST(Recharacterize, StillWorkingCostsOneRound) {
  Rig rig;
  ReadaptOutcome out =
      incremental_readapt(rig.lib, rig.trace, rig.cached, nullptr);
  EXPECT_EQ(out.path, ReadaptPath::kStillWorking);
  EXPECT_EQ(out.technique, rig.cached.ranking.front().name);
  EXPECT_EQ(out.report.total_rounds, 1);
  EXPECT_GT(out.report.total_bytes, 0u);
}

TEST(Recharacterize, PolicyRemovalDetectedInTwoRounds) {
  Rig rig;
  // Operator removes every rule: nothing is differentiated anymore. The
  // deployed-technique probe can't distinguish "technique works" from
  // "policy gone", so this costs the level-1 probe plus one plain round.
  rig.env->dpi->engine().set_rules({});
  ReadaptOutcome out =
      incremental_readapt(rig.lib, rig.trace, rig.cached, nullptr);
  EXPECT_EQ(out.path, ReadaptPath::kStillWorking);

  // Force past level 1: a ranking whose front no longer exists models a
  // deployment whose technique registry rotated underneath it.
  CachedCharacterization gone = rig.cached;
  gone.ranking.front().name = "no-such-technique";
  out = incremental_readapt(rig.lib, rig.trace, gone, nullptr);
  EXPECT_EQ(out.path, ReadaptPath::kPolicyGone);
  EXPECT_TRUE(out.technique.empty());
  EXPECT_LE(out.report.total_rounds, 2);
  EXPECT_FALSE(out.report.detection.differentiation);
  // Nothing to redeploy: the input entry comes back unchanged.
  EXPECT_EQ(entry_json(out.deployed), entry_json(gone));
}

TEST(Recharacterize, VerifiedCachedWalksRankingWhenFingerprintHolds) {
  Rig rig;
  ASSERT_EQ(rig.cached.ranking.front().name,
            "reorder/ip-fragments-out-of-order");

  // Countermeasure deployment: a normalizer reassembling IP fragments in
  // front of the classifier. Fragment-based evasion dies; the rule set (and
  // therefore the fingerprint) is unchanged.
  dpi::NormalizerConfig cfg;
  cfg.reassemble_fragments = true;
  rig.env->net.emplace_at<dpi::NormalizerElement>(0, cfg);

  ReadaptOutcome out =
      incremental_readapt(rig.lib, rig.trace, rig.cached, nullptr);
  EXPECT_EQ(out.path, ReadaptPath::kVerifiedCached);
  EXPECT_TRUE(out.fingerprint_verified);
  EXPECT_FALSE(out.technique.empty());
  EXPECT_NE(out.technique, rig.cached.ranking.front().name);
  // The whole point: re-adaptation at a fraction of the analysis cost.
  EXPECT_LT(out.report.total_rounds, rig.analysis.total_rounds / 4);
  EXPECT_EQ(out.report.selected_technique, out.technique);
}

TEST(Recharacterize, RuleChangeForcesFullAnalysisAndRefreshesCache) {
  Rig rig;
  ClassifierFingerprintCache cache;
  cache.store(rig.cached);
  const Fingerprint before = rig.cached.digest;

  // The rule moves to the server response's Content-Type: blinding the old
  // client-side field no longer kills classification, so the fingerprint
  // verification fails and a full re-analysis runs.
  auto rules = rig.env->dpi->engine().rules();
  for (auto& r : rules) {
    if (r.name == "testbed-http-video") {
      r.keywords = {"Content-Type: video/mp4"};
    }
  }
  rig.env->dpi->engine().set_rules(rules);

  ReadaptOutcome out =
      incremental_readapt(rig.lib, rig.trace, rig.cached, &cache);
  EXPECT_EQ(out.path, ReadaptPath::kFullAnalysis);
  EXPECT_FALSE(out.fingerprint_verified);
  EXPECT_FALSE(out.technique.empty());
  EXPECT_GT(out.report.total_rounds, 10);

  const CachedCharacterization* refreshed =
      cache.lookup("testbed", rig.trace.app_name);
  ASSERT_NE(refreshed, nullptr);
  EXPECT_FALSE(before.lo == refreshed->digest.lo &&
               before.hi == refreshed->digest.hi);
  EXPECT_EQ(refreshed->ranking.front().name, out.technique);
}

// The facade's runtime adaptation, driven the way a deployment drives it:
// analyze once, cache the result, and hand that entry to the ladder after the
// operator's countermeasure.
TEST(Liberate, ReadaptRecoversFromRuleChange) {
  auto env = dpi::make_testbed();
  core::Liberate lib(*env);
  auto t = trace::amazon_video_trace(32 * 1024);
  core::SessionReport report = lib.analyze(t);
  ASSERT_TRUE(report.selected_technique.has_value());

  // The operator deploys a countermeasure: the rule now matches the SERVER
  // response's Content-Type instead of the client request — the deployed
  // client-side packet transform no longer touches the matching bytes.
  {
    auto rules = env->dpi->engine().rules();
    for (auto& r : rules) {
      if (r.name == "testbed-http-video") {
        r.keywords = {"Content-Type: video/mp4"};
      }
    }
    env->dpi->engine().set_rules(rules);
  }

  ReadaptOutcome verdict = incremental_readapt(
      lib, t, make_cached_characterization("testbed", t.app_name, report),
      nullptr);
  EXPECT_NE(verdict.path, ReadaptPath::kStillWorking);
  const core::SessionReport& fresh = verdict.report;
  ASSERT_TRUE(fresh.selected_technique.has_value());
  // Totals fold the failed verification probes into the re-analysis cost.
  EXPECT_GT(fresh.total_rounds, 10);
  // The new analysis found the new matching field, in the server's message.
  std::string fields;
  bool in_server_message = false;
  for (const core::MatchingField& f : fresh.characterization.fields) {
    fields += to_string(BytesView(f.content)) + "|";
    if (f.message_index == 1) in_server_message = true;
  }
  EXPECT_NE(fields.find("video/mp4"), std::string::npos);
  EXPECT_TRUE(in_server_message);
}

// A technique that gets the exchange through unclassified but corrupts the
// payload is not working: evaluation would never have selected it, so the
// ladder must not keep it either. An inert packet that outlives the
// middlebox (TTL 30) reaches the server and lands in the delivered bytes.
TEST(Recharacterize, ReanalyzesWhenTechniqueCorruptsPayload) {
  Rig rig;
  ASSERT_TRUE(rig.analysis.selected_technique.has_value());

  CachedCharacterization corrupting = rig.cached;
  corrupting.ranking = {RankedTechnique{"inert/ip-low-ttl"}};
  corrupting.middlebox_hops = 30;
  corrupting.digest = characterization_digest(corrupting.characterization());
  {
    core::RoundRequest probe;
    probe.trace = rig.trace;
    probe.technique = "inert/ip-low-ttl";
    probe.context = corrupting.context();
    core::RoundResult r = rig.lib.runner().run(probe);
    ASSERT_TRUE(r.outcome.completed);
    ASSERT_FALSE(r.differentiated);
    ASSERT_FALSE(r.outcome.payload_intact);
  }

  ReadaptOutcome out =
      incremental_readapt(rig.lib, rig.trace, corrupting, nullptr);
  EXPECT_EQ(out.path, ReadaptPath::kFullAnalysis);
  ASSERT_GE(out.ladder.size(), 2u);
  EXPECT_EQ(out.ladder.front().stage, "still-working");
  EXPECT_EQ(out.ladder.back().stage, "full-analysis");
  EXPECT_EQ(out.technique, *rig.analysis.selected_technique);
  EXPECT_EQ(out.report.selected_technique, rig.analysis.selected_technique);
}

int ladder_sum(const ReadaptOutcome& out) {
  int sum = 0;
  for (const ReadaptStageCost& stage : out.ladder) sum += stage.rounds;
  return sum;
}

TEST(Recharacterize, LadderStageRoundsSumToTotalOnEveryPath) {
  Rig rig;

  // Level 1 only: one still-working stage covering the whole cost.
  ReadaptOutcome cheap =
      incremental_readapt(rig.lib, rig.trace, rig.cached, nullptr);
  ASSERT_EQ(cheap.path, ReadaptPath::kStillWorking);
  ASSERT_FALSE(cheap.ladder.empty());
  EXPECT_EQ(cheap.ladder.front().stage, "still-working");
  EXPECT_EQ(ladder_sum(cheap), cheap.report.total_rounds);
  EXPECT_EQ(entry_json(cheap.deployed), entry_json(rig.cached));
  EXPECT_EQ(cheap.deployed.ranking.front().name, cheap.technique);

  // Ranking walk: the normalizer countermeasure pushes past levels 1-3.
  dpi::NormalizerConfig cfg;
  cfg.reassemble_fragments = true;
  rig.env->net.emplace_at<dpi::NormalizerElement>(0, cfg);
  ReadaptOutcome walked =
      incremental_readapt(rig.lib, rig.trace, rig.cached, nullptr);
  ASSERT_EQ(walked.path, ReadaptPath::kVerifiedCached);
  EXPECT_EQ(ladder_sum(walked), walked.report.total_rounds);
  ASSERT_GE(walked.ladder.size(), 4u);
  EXPECT_EQ(walked.ladder.back().stage, "ranking-walk");
  // The cached entry, re-ranked so the next readapt probes what now works.
  ASSERT_FALSE(walked.deployed.ranking.empty());
  EXPECT_EQ(walked.deployed.ranking.front().name, walked.technique);
  EXPECT_EQ(walked.deployed.ranking.size(), rig.cached.ranking.size());
  EXPECT_EQ(walked.deployed.digest, rig.cached.digest);

  // Full analysis: rotate the rule so the fingerprint verification fails.
  auto rules = rig.env->dpi->engine().rules();
  for (auto& r : rules) {
    if (r.name == "testbed-http-video") {
      r.keywords = {"Content-Type: video/mp4"};
    }
  }
  rig.env->dpi->engine().set_rules(rules);
  ReadaptOutcome full =
      incremental_readapt(rig.lib, rig.trace, rig.cached, nullptr);
  ASSERT_EQ(full.path, ReadaptPath::kFullAnalysis);
  EXPECT_EQ(ladder_sum(full), full.report.total_rounds);
  EXPECT_EQ(full.ladder.back().stage, "full-analysis");
  // The fresh analysis, under this environment.
  ASSERT_FALSE(full.deployed.ranking.empty());
  EXPECT_EQ(full.deployed.ranking.front().name, full.technique);
  EXPECT_EQ(full.deployed.environment, "testbed");
  EXPECT_NE(full.deployed.digest, rig.cached.digest);
}

// The fingerprint-verify exit: the live classifier's probed digest matches a
// known implementation, and the first of its techniques that works here is
// adopted along with its knowledge.
TEST(Recharacterize, FingerprintMatchDeploysAdoptedEntryWithProbedDigest) {
  Rig rig;
  dpi::NormalizerConfig cfg;
  cfg.reassemble_fragments = true;
  rig.env->net.emplace_at<dpi::NormalizerElement>(0, cfg);

  fingerprint::AmbiguityDigest probed;
  probed.add({"frag-overlap", 0x5, 2});
  CachedCharacterization known = rig.cached;
  known.environment = "testbed+normalizer";
  known.ambiguity = probed;
  ClassifierFingerprintCache cache;
  cache.store(known);
  ReadaptHooks hooks;
  hooks.probe_ambiguity = [&] {
    return fingerprint::AmbiguityProbeResult{probed, 19};
  };

  ReadaptOutcome out =
      incremental_readapt(rig.lib, rig.trace, rig.cached, &cache, &hooks);
  ASSERT_EQ(out.path, ReadaptPath::kFingerprintMatched);
  EXPECT_EQ(out.matched_environment, "testbed+normalizer");
  EXPECT_EQ(out.probe_flows, 19u);
  ASSERT_FALSE(out.technique.empty());
  EXPECT_NE(out.technique, rig.cached.ranking.front().name);

  // The matched knowledge, re-keyed to this environment, working technique
  // first and carrying the digest just probed.
  EXPECT_EQ(out.deployed.environment, "testbed");
  EXPECT_EQ(out.deployed.digest, known.digest);
  EXPECT_EQ(out.deployed.ranking.front().name, out.technique);
  EXPECT_EQ(out.deployed.ambiguity, probed);
  // ... and stored for this environment, so the next drift is a warm hit.
  const CachedCharacterization* stored =
      cache.lookup("testbed", rig.trace.app_name);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->digest, known.digest);
  EXPECT_EQ(stored->ambiguity, probed);
  // Stored as deployed: the technique that works here leads, not the
  // matched entry's cost-order front that already failed.
  ASSERT_FALSE(stored->ranking.empty());
  EXPECT_EQ(stored->ranking.front().name, out.technique);
}

}  // namespace
}  // namespace liberate::deploy
