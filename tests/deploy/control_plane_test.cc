// Control-plane unit tests: drift hysteresis, the adaptation state machine's
// legal edge set, and the fingerprint cache's JSON persistence — the §4.2
// format users share characterizations in.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "core/evasion/split.h"
#include "deploy/drift.h"
#include "deploy/fingerprint.h"
#include "deploy/policy.h"
#include "dpi/profiles.h"
#include "trace/generators.h"

namespace liberate::deploy {
namespace {

WaveStats wave(std::size_t flows, std::size_t differentiated,
               std::size_t blocked = 0, std::size_t incomplete = 0) {
  WaveStats w;
  w.flows = flows;
  w.differentiated = differentiated;
  w.blocked = blocked;
  w.incomplete = incomplete;
  return w;
}

DriftThresholds tight() {
  DriftThresholds t;
  t.waves_to_confirm = 2;
  t.waves_to_clear = 2;
  t.min_flows = 8;
  return t;
}

TEST(DriftMonitor, FirstAdequateWaveBecomesBaseline) {
  DriftMonitor monitor(tight());
  EXPECT_FALSE(monitor.has_baseline());
  EXPECT_FALSE(monitor.observe(wave(4, 4)).has_value());  // too small: ignored
  EXPECT_FALSE(monitor.has_baseline());
  EXPECT_FALSE(monitor.observe(wave(32, 0)).has_value());
  ASSERT_TRUE(monitor.has_baseline());
  EXPECT_EQ(monitor.baseline().flows, 32u);
}

TEST(DriftMonitor, ConfirmsAfterConsecutiveSuspectWaves) {
  DriftMonitor monitor(tight());
  monitor.observe(wave(32, 0));  // baseline
  EXPECT_FALSE(monitor.observe(wave(32, 16)).has_value());  // suspect #1
  EXPECT_EQ(monitor.suspect_streak(), 1);
  auto signal = monitor.observe(wave(32, 20));  // suspect #2 -> fire
  ASSERT_TRUE(signal.has_value());
  EXPECT_EQ(signal->kind, DriftKind::kDifferentiationReappeared);
  EXPECT_DOUBLE_EQ(signal->rate, 20.0 / 32.0);
  EXPECT_DOUBLE_EQ(signal->baseline, 0.0);
  EXPECT_EQ(signal->suspect_waves, 2);
  // One signal per confirmation: the streak reset with the signal.
  EXPECT_EQ(monitor.suspect_streak(), 0);
}

TEST(DriftMonitor, SuspicionSurvivesOneCleanWave) {
  DriftMonitor monitor(tight());
  monitor.observe(wave(32, 0));                             // baseline
  EXPECT_FALSE(monitor.observe(wave(32, 16)).has_value());  // suspect #1
  EXPECT_FALSE(monitor.observe(wave(32, 0)).has_value());   // clean (1 < 2)
  EXPECT_EQ(monitor.suspect_streak(), 1);                   // not reset yet
  EXPECT_TRUE(monitor.observe(wave(32, 16)).has_value());   // suspect #2
}

TEST(DriftMonitor, TransientSuspicionClearsAfterCleanStreak) {
  DriftMonitor monitor(tight());
  monitor.observe(wave(32, 0));                             // baseline
  EXPECT_FALSE(monitor.observe(wave(32, 16)).has_value());  // suspect #1
  monitor.observe(wave(32, 0));                             // clean #1
  monitor.observe(wave(32, 0));                             // clean #2: reset
  EXPECT_EQ(monitor.suspect_streak(), 0);
  EXPECT_FALSE(monitor.observe(wave(32, 16)).has_value());  // suspect anew
}

TEST(DriftMonitor, SlackAbsorbsNoiseAboveNonzeroBaseline) {
  DriftMonitor monitor(tight());
  monitor.observe(wave(32, 8));  // baseline rate 0.25
  // 0.40 < 0.25 + 0.20 slack: not suspect.
  EXPECT_FALSE(monitor.observe(wave(32, 13)).has_value());
  EXPECT_EQ(monitor.suspect_streak(), 0);
}

TEST(DriftMonitor, TypedKindsForBlockingAndCompletion) {
  DriftMonitor blocking(tight());
  blocking.observe(wave(32, 0));
  blocking.observe(wave(32, 0, /*blocked=*/16, /*incomplete=*/16));
  auto sig = blocking.observe(wave(32, 0, 16, 16));
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(sig->kind, DriftKind::kBlockingSurge);  // stronger than collapse

  DriftMonitor collapse(tight());
  collapse.observe(wave(32, 0));
  collapse.observe(wave(32, 0, 0, /*incomplete=*/20));
  sig = collapse.observe(wave(32, 0, 0, 20));
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(sig->kind, DriftKind::kCompletionCollapse);
}

TEST(DriftMonitor, RebaselineForgetsHistory) {
  DriftMonitor monitor(tight());
  monitor.observe(wave(32, 0));
  monitor.observe(wave(32, 16));
  monitor.rebaseline();
  EXPECT_FALSE(monitor.has_baseline());
  EXPECT_EQ(monitor.suspect_streak(), 0);
  // The elevated rate is the new normal after re-deployment.
  EXPECT_FALSE(monitor.observe(wave(32, 16)).has_value());  // new baseline
  EXPECT_FALSE(monitor.observe(wave(32, 18)).has_value());  // within slack
}

TEST(AdaptationPolicy, RejectsIllegalEdges) {
  AdaptationPolicy policy;
  EXPECT_EQ(policy.state(), DeployState::kDeployed);
  // deployed can only go suspect.
  EXPECT_FALSE(policy.transition(DeployState::kReVerifying, 0, "skip", 0));
  EXPECT_FALSE(policy.transition(DeployState::kReDeployed, 0, "skip", 0));
  EXPECT_EQ(policy.state(), DeployState::kDeployed);
  EXPECT_TRUE(policy.transitions().empty());

  EXPECT_TRUE(policy.transition(DeployState::kSuspect, 1, "drift", 0));
  // suspect cannot jump straight to re-analyzing.
  EXPECT_FALSE(policy.transition(DeployState::kReAnalyzing, 1, "skip", 0));
  EXPECT_TRUE(policy.transition(DeployState::kReVerifying, 1, "confirmed", 0));
  EXPECT_TRUE(policy.transition(DeployState::kReAnalyzing, 1, "mismatch", 0));
  // re-analyzing only settles via re-deployed.
  EXPECT_FALSE(policy.transition(DeployState::kDeployed, 1, "skip", 0));
  EXPECT_TRUE(policy.transition(DeployState::kReDeployed, 1, "fresh", 0));
  EXPECT_TRUE(policy.transition(DeployState::kDeployed, 2, "settled", 0));
  EXPECT_EQ(policy.transitions().size(), 5u);
}

TEST(AdaptationPolicy, DescribeRendersOneLinePerEdge) {
  AdaptationPolicy policy;
  policy.transition(DeployState::kSuspect, 3, "drift-suspect", 0);
  policy.transition(DeployState::kDeployed, 4, "cleared", 0);
  EXPECT_EQ(policy.describe(),
            "deployed->suspect@3 drift-suspect\n"
            "suspect->deployed@4 cleared\n");
}

// Entries must hash to their digest to load, so a test that edits an
// entry's fields or quirks re-seals it before storing.
CachedCharacterization sealed(CachedCharacterization e) {
  e.digest = characterization_digest(e.characterization());
  return e;
}

CachedCharacterization sample_entry() {
  CachedCharacterization e;
  e.environment = "testbed";
  e.app = "AmazonPrimeVideo";
  core::MatchingField f;
  f.message_index = 0;
  f.offset = 4;
  f.length = 5;
  f.content = Bytes{'H', 'o', 's', 't', 0xff};  // non-ASCII survives hex
  e.fields.push_back(f);
  e.position_sensitive = true;
  e.inspects_all_packets = false;
  e.port_sensitive = false;
  e.packet_limit = 5;
  e.middlebox_hops = 1;
  e.ranking.push_back({"reorder/ip-fragments-out-of-order", 1, 20, 0.0});
  e.ranking.push_back({"split/tcp-segmentation", 9, 360, 0.25});
  return sealed(std::move(e));
}

TEST(FingerprintCache, JsonRoundTripPreservesEverything) {
  ClassifierFingerprintCache cache;
  cache.store(sample_entry());

  auto parsed = ClassifierFingerprintCache::from_json(cache.to_json());
  ASSERT_TRUE(parsed.has_value());
  const CachedCharacterization* e =
      parsed->lookup("testbed", "AmazonPrimeVideo");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->digest, sample_entry().digest);
  ASSERT_EQ(e->fields.size(), 1u);
  EXPECT_EQ(e->fields[0].message_index, 0u);
  EXPECT_EQ(e->fields[0].offset, 4u);
  EXPECT_EQ(e->fields[0].length, 5u);
  EXPECT_EQ(e->fields[0].content, (Bytes{'H', 'o', 's', 't', 0xff}));
  EXPECT_TRUE(e->position_sensitive);
  ASSERT_TRUE(e->packet_limit.has_value());
  EXPECT_EQ(*e->packet_limit, 5u);
  ASSERT_TRUE(e->middlebox_hops.has_value());
  EXPECT_EQ(*e->middlebox_hops, 1);
  ASSERT_EQ(e->ranking.size(), 2u);
  EXPECT_EQ(e->ranking[0].name, "reorder/ip-fragments-out-of-order");
  EXPECT_EQ(e->ranking[1].extra_packets, 9u);
  EXPECT_DOUBLE_EQ(e->ranking[1].extra_seconds, 0.25);

  // Determinism: a round-tripped cache re-serializes byte-identically.
  EXPECT_EQ(parsed->to_json(), cache.to_json());
}

TEST(FingerprintCache, NulloptOptionalsRoundTrip) {
  CachedCharacterization e = sample_entry();
  e.packet_limit.reset();
  e.middlebox_hops.reset();
  ClassifierFingerprintCache cache;
  cache.store(sealed(e));
  auto parsed = ClassifierFingerprintCache::from_json(cache.to_json());
  ASSERT_TRUE(parsed.has_value());
  const CachedCharacterization* got =
      parsed->lookup("testbed", "AmazonPrimeVideo");
  ASSERT_NE(got, nullptr);
  EXPECT_FALSE(got->packet_limit.has_value());
  EXPECT_FALSE(got->middlebox_hops.has_value());
}

TEST(FingerprintCache, RejectsMalformedJson) {
  EXPECT_FALSE(ClassifierFingerprintCache::from_json("").has_value());
  EXPECT_FALSE(ClassifierFingerprintCache::from_json("[]").has_value());
  EXPECT_FALSE(
      ClassifierFingerprintCache::from_json("{\"version\":2}").has_value());
  // Digest must be the 33-char hex form.
  EXPECT_FALSE(ClassifierFingerprintCache::from_json(
                   "{\"version\":1,\"entries\":[{\"environment\":\"e\","
                   "\"app\":\"a\",\"digest\":\"nope\"}]}")
                   .has_value());
}

// Integers arrive as JSON doubles; converting one outside the target type
// would be undefined behaviour, so each must reject the whole file.
TEST(FingerprintCache, RejectsOutOfRangeIntegers) {
  ClassifierFingerprintCache cache;
  cache.store(sample_entry());
  const std::string ok = cache.to_json();
  // `member` is a key with its value as written, e.g. "\"version\":2".
  auto load_with = [&](std::string_view member, const char* value) {
    std::string text = ok;
    const std::size_t at = text.find(member);
    EXPECT_NE(at, std::string::npos) << member;
    const std::size_t colon = member.find(':') + 1;
    text.replace(at + colon, member.size() - colon, value);
    return ClassifierFingerprintCache::from_json(text);
  };
  for (const char* bad : {"1e300", "-1", "4294967296", "2.5"}) {
    EXPECT_FALSE(load_with("\"version\":2", bad).has_value()) << bad;
  }
  // The int hop count holds -1, but not 2^32 or fractions.
  for (const char* bad : {"1e300", "4294967296", "2.5"}) {
    EXPECT_FALSE(load_with("\"middlebox_hops\":1", bad).has_value()) << bad;
  }
  // size_t members hold 2^32 but not 2^64, negatives or fractions.
  for (const char* member :
       {"\"packet_limit\":5", "\"message\":0", "\"offset\":4",
        "\"length\":5", "\"extra_packets\":9", "\"extra_bytes\":360"}) {
    for (const char* bad : {"1e300", "-1", "2.5", "18446744073709551616"}) {
      EXPECT_FALSE(load_with(member, bad).has_value()) << member << bad;
    }
  }
  // The ranking costs are outside the digest, so editing the text is enough.
  for (const char* member : {"\"extra_packets\":9", "\"extra_bytes\":360"}) {
    EXPECT_TRUE(load_with(member, "4294967296").has_value()) << member;
  }
  // The digest covers the quirks and fields: write 2^32 with a matching
  // digest and check it survives the round trip.
  constexpr std::size_t k2to32 = std::size_t{1} << 32;
  auto round_trips = [](const CachedCharacterization& e) {
    ClassifierFingerprintCache big;
    big.store(sealed(e));
    auto parsed = ClassifierFingerprintCache::from_json(big.to_json());
    return parsed.has_value() &&
           parsed->lookup("testbed", "AmazonPrimeVideo") != nullptr;
  };
  CachedCharacterization e = sample_entry();
  e.packet_limit = k2to32;
  EXPECT_TRUE(round_trips(e)) << "packet_limit";
  e = sample_entry();
  e.fields[0].message_index = k2to32;
  EXPECT_TRUE(round_trips(e)) << "message";
  e = sample_entry();
  e.fields[0].offset = k2to32;
  EXPECT_TRUE(round_trips(e)) << "offset";
  e = sample_entry();
  e.fields[0].length = k2to32;
  EXPECT_TRUE(round_trips(e)) << "length";
}

// A shared entry whose fields no longer hash to its digest was edited or
// corrupted in transit: deploying it would target bytes the classifier never
// sees, so the whole file is rejected.
TEST(FingerprintCache, RejectsEntryWhoseFieldsDisagreeWithItsDigest) {
  CachedCharacterization e = sample_entry();
  e.environment = "gfc";
  e.app = "Economist";
  e.fields[0].content = to_bytes("economist.com");
  e.fields[0].length = e.fields[0].content.size();
  ClassifierFingerprintCache cache;
  cache.store(sealed(e));
  const std::string ok = cache.to_json();
  ASSERT_TRUE(ClassifierFingerprintCache::from_json(ok).has_value());

  // Flip one hex digit of the field to another valid digit: 'e' (0x65)
  // becomes 'd' (0x64), so the field reads "dconomist.com".
  std::string flipped = ok;
  const std::size_t at = flipped.find("65636f6e6f6d6973742e636f6d");
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(flipped[at + 1], '5');
  flipped[at + 1] = '4';
  EXPECT_FALSE(ClassifierFingerprintCache::from_json(flipped).has_value());

  // A quirk edit is caught the same way.
  std::string quirk = ok;
  const std::size_t ps = quirk.find("\"position_sensitive\":true");
  ASSERT_NE(ps, std::string::npos);
  quirk.replace(ps, 25, "\"position_sensitive\":false");
  EXPECT_FALSE(ClassifierFingerprintCache::from_json(quirk).has_value());
}

// The paper's sharing story end to end (§4.2): user A pays the
// characterization cost against the censor and publishes a cache entry;
// user B loads the JSON and goes straight to evasion — zero
// characterization rounds.
TEST(FingerprintCache, SecondUserSkipsCharacterization) {
  const trace::ApplicationTrace app = trace::facebook_trace();
  std::string published;
  {
    auto env = dpi::make_iran();
    core::ReplayRunner runner(*env);
    core::SessionReport report;
    report.characterization = core::characterize_classifier(runner, app);
    ASSERT_FALSE(report.characterization.fields.empty());
    ClassifierFingerprintCache cache;
    cache.store(make_cached_characterization("iran", app.app_name, report));
    published = cache.to_json();
  }
  {
    auto env = dpi::make_iran();
    core::ReplayRunner runner(*env);
    auto cache = ClassifierFingerprintCache::from_json(published);
    ASSERT_TRUE(cache.has_value());
    const CachedCharacterization* adopted = cache->lookup("iran", app.app_name);
    ASSERT_NE(adopted, nullptr);
    const core::CharacterizationReport characterization =
        adopted->characterization();
    const int rounds_before = runner.rounds();
    core::EvasionEvaluator evaluator(runner, characterization);
    core::TcpSegmentSplit split(false);
    auto outcome = evaluator.evaluate_one(split, app);
    EXPECT_TRUE(outcome.evaded);
    // Only the single evasion round ran; no blinding, no probing.
    EXPECT_EQ(runner.rounds() - rounds_before, 1);
  }
}

TEST(FingerprintCache, SaveAndLoadFile) {
  ClassifierFingerprintCache cache;
  cache.store(sample_entry());
  const std::string path =
      testing::TempDir() + "/liberate_fingerprint_cache_test.json";
  ASSERT_TRUE(cache.save(path));
  auto loaded = ClassifierFingerprintCache::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->to_json(), cache.to_json());
  EXPECT_FALSE(
      ClassifierFingerprintCache::load(path + ".missing").has_value());
}

fingerprint::AmbiguityDigest sample_digest(std::uint32_t tcp_bits) {
  fingerprint::AmbiguityDigest d;
  d.add({"frag-overlap", 0xaa, 4});
  d.add({"tcp-overlap", tcp_bits, 3});
  return d;
}

TEST(FingerprintCache, AmbiguityDigestRoundTrips) {
  CachedCharacterization e = sample_entry();
  e.ambiguity = sample_digest(0x39);
  ClassifierFingerprintCache cache;
  cache.store(e);

  auto parsed = ClassifierFingerprintCache::from_json(cache.to_json());
  ASSERT_TRUE(parsed.has_value());
  const CachedCharacterization* got =
      parsed->lookup("testbed", "AmazonPrimeVideo");
  ASSERT_NE(got, nullptr);
  ASSERT_TRUE(got->ambiguity.has_value());
  EXPECT_EQ(*got->ambiguity, *e.ambiguity);
  EXPECT_EQ(got->ambiguity->fingerprint_hex(),
            e.ambiguity->fingerprint_hex());
  EXPECT_EQ(parsed->to_json(), cache.to_json());
}

TEST(FingerprintCache, PreAmbiguityCachesInvalidateCleanly) {
  // Positive control: the minimal v2 shape parses.
  EXPECT_TRUE(ClassifierFingerprintCache::from_json(
                  "{\"version\":2,\"digest_format\":\"ambiguity/v1\","
                  "\"entries\":[]}")
                  .has_value());
  // A v1 file (pre-ambiguity schema) degrades to a cold start.
  EXPECT_FALSE(ClassifierFingerprintCache::from_json(
                   "{\"version\":1,\"digest_format\":\"ambiguity/v1\","
                   "\"entries\":[]}")
                   .has_value());
  // Missing or mismatched digest format: entries were probed with a
  // different digest revision and must not feed nearest-fingerprint matching.
  EXPECT_FALSE(
      ClassifierFingerprintCache::from_json("{\"version\":2,\"entries\":[]}")
          .has_value());
  ClassifierFingerprintCache cache;
  CachedCharacterization e = sample_entry();
  e.ambiguity = sample_digest(0x39);
  cache.store(e);
  std::string stale = cache.to_json();
  const std::size_t at = stale.find("ambiguity/v1");
  ASSERT_NE(at, std::string::npos);
  stale.replace(at, 12, "ambiguity/v0");
  EXPECT_FALSE(ClassifierFingerprintCache::from_json(stale).has_value());
}

TEST(FingerprintCache, NearestByAmbiguitySelectsClosestWithinBound) {
  ClassifierFingerprintCache cache;
  CachedCharacterization a = sample_entry();
  a.environment = "alpha";
  a.ambiguity = sample_digest(0x39);
  CachedCharacterization b = sample_entry();
  b.environment = "beta";
  b.ambiguity = sample_digest(0x3f);
  CachedCharacterization c = sample_entry();
  c.environment = "gamma";  // no digest: never a nearest-match candidate
  cache.store(a);
  cache.store(b);
  cache.store(c);

  // 0x38 is 1 bit from alpha's tcp-overlap bits, 3 from beta's.
  auto [hit, dist] =
      cache.nearest_by_ambiguity(sample_digest(0x38), "AmazonPrimeVideo", 8);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->environment, "alpha");
  EXPECT_EQ(dist, 1u);

  // The bound is strict: distance 1 does not match max_distance 0.
  auto [miss, miss_dist] =
      cache.nearest_by_ambiguity(sample_digest(0x38), "AmazonPrimeVideo", 0);
  EXPECT_EQ(miss, nullptr);
  EXPECT_EQ(miss_dist, std::numeric_limits<std::size_t>::max());

  // Matching is per-app: another app's traffic never adopts this ranking.
  auto [other, other_dist] =
      cache.nearest_by_ambiguity(sample_digest(0x39), "OtherApp", 8);
  EXPECT_EQ(other, nullptr);
  (void)other_dist;
}

TEST(FingerprintDigest, SensitiveToFieldsAndQuirks) {
  core::CharacterizationReport a;
  core::MatchingField f;
  f.message_index = 0;
  f.offset = 4;
  f.length = 5;
  f.content = Bytes{'H', 'o', 's', 't', ':'};
  a.fields.push_back(f);
  a.position_sensitive = true;

  core::CharacterizationReport b = a;
  EXPECT_EQ(characterization_digest(a).lo, characterization_digest(b).lo);
  EXPECT_EQ(characterization_digest(a).hi, characterization_digest(b).hi);

  b.fields[0].offset = 5;
  EXPECT_NE(characterization_digest(a).lo, characterization_digest(b).lo);

  core::CharacterizationReport c = a;
  c.packet_limit = 5;
  EXPECT_NE(characterization_digest(a).lo, characterization_digest(c).lo);
}

}  // namespace
}  // namespace liberate::deploy
