// match_program_diff_test.cc — the compiled matcher's equivalence proof.
//
// dpi/match_program.h promises: for every (rules, content, ctx), run()
// returns the same RuleHit and emits byte-identical RuleStep/ContentTrace
// sequences as match_rules_reference_traced(). This suite enforces the
// contract two ways:
//
//   * a seed-driven differential sweep (the tests/fuzz match campaign
//     generator): randomized rule sets × adversarial contents × contexts,
//     >= 100k cases per run, traced AND verdict-only paths. Any divergence
//     prints the one-line seed repro.
//   * targeted deterministic cases for every edge the compiler special-cases
//     (anchors at offsets 0/±1, empty payloads, empty keywords, single-byte
//     keywords, overlapping keywords, STUN guards, node-budget fallback,
//     the compile cache, the backend toggle).
#include "dpi/match_program.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "dpi/stun_parser.h"
#include "fuzz/fuzz.h"

namespace liberate::dpi {
namespace {

std::uint64_t sweep_iterations(std::uint64_t fallback) {
  const char* env = std::getenv("LIBERATE_FUZZ_ITERATIONS");
  if (!env) return fallback;
  long long v = std::atoll(env);
  return v > 0 ? static_cast<std::uint64_t>(v) : fallback;
}

// --- the big sweep --------------------------------------------------------

constexpr std::uint64_t kDiffBaseSeed = 0xD1FF;

TEST(MatchProgramDiff, HundredThousandRandomCasesByteIdentical) {
  // Each iteration checks 12-13 (rules, content, ctx) triples, each on the
  // traced and the verdict-only path; 9000 iterations clear 100k triples.
  const std::uint64_t iterations = sweep_iterations(9000);
  fuzz::FuzzStats stats;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed = fuzz::iteration_seed(kDiffBaseSeed, i);
    fuzz::run_match_program_iteration(seed, stats);
    ASSERT_EQ(stats.match_divergences, 0u)
        << "repro: liberate::fuzz::run_match_program_iteration(0x" << std::hex
        << seed << "ULL, stats)";
  }
  EXPECT_GE(stats.match_cases_checked, 100000u);
  // Coverage telemetry: the sweep must exercise the fallback path too.
  EXPECT_EQ(stats.match_programs_compiled, iterations);
  EXPECT_GT(stats.match_fallback_programs, 0u);
  EXPECT_LT(stats.match_fallback_programs, iterations / 10);
}

TEST(MatchProgramDiff, SweepIsDeterministic) {
  fuzz::FuzzStats a = fuzz::run_match_program_campaign(11, 40);
  fuzz::FuzzStats b = fuzz::run_match_program_campaign(11, 40);
  EXPECT_EQ(a.match_cases_checked, b.match_cases_checked);
  EXPECT_EQ(a.match_divergences, 0u);
  EXPECT_EQ(b.match_divergences, 0u);
}

// --- targeted deterministic cases -----------------------------------------

/// Assert full equivalence (verdict + steps) for one case, with readable
/// failure output.
void expect_identical(const std::vector<MatchRule>& rules, BytesView content,
                      const RuleContext& ctx) {
  MatchProgram prog = MatchProgram::compile(rules);
  MatchProgram::Scratch scratch;
  std::vector<RuleStep> ref_steps;
  std::vector<RuleStep> prog_steps;
  RuleHit ref = match_rules_reference_traced(rules, content, ctx, &ref_steps);
  RuleHit got = prog.run(rules, content, ctx, &prog_steps, scratch);
  RuleHit verdict = prog.run(rules, content, ctx, nullptr, scratch);
  EXPECT_EQ(ref.rule, got.rule);
  EXPECT_EQ(ref.rule, verdict.rule);
  ASSERT_EQ(ref_steps.size(), prog_steps.size());
  for (std::size_t i = 0; i < ref_steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(ref_steps[i].rule, prog_steps[i].rule);
    EXPECT_EQ(static_cast<int>(ref_steps[i].outcome),
              static_cast<int>(prog_steps[i].outcome));
    EXPECT_EQ(ref_steps[i].content.keyword_offsets,
              prog_steps[i].content.keyword_offsets);
    EXPECT_EQ(ref_steps[i].content.failed_keyword,
              prog_steps[i].content.failed_keyword);
    EXPECT_EQ(ref_steps[i].content.anchor_failed,
              prog_steps[i].content.anchor_failed);
    EXPECT_EQ(ref_steps[i].content.stun_failed,
              prog_steps[i].content.stun_failed);
  }
}

std::vector<MatchRule> anchored_rule() {
  MatchRule r;
  r.name = "anchored-get";
  r.traffic_class = "web";
  r.keywords = {"GET ", "youtube"};
  r.anchored = true;
  return {r};
}

TEST(MatchProgramDiff, AnchorAtOffsetZeroMatches) {
  Bytes c = to_bytes("GET /watch youtube HTTP/1.1");
  expect_identical(anchored_rule(), BytesView(c), RuleContext{});
}

TEST(MatchProgramDiff, AnchorDefeatedByOneLeadingByte) {
  Bytes c = to_bytes("\nGET /watch youtube HTTP/1.1");
  expect_identical(anchored_rule(), BytesView(c), RuleContext{});
}

TEST(MatchProgramDiff, AnchorKeywordMissingEntirely) {
  Bytes c = to_bytes("POST /watch youtube HTTP/1.1");
  expect_identical(anchored_rule(), BytesView(c), RuleContext{});
}

TEST(MatchProgramDiff, CaseFoldIsAsciiOnly) {
  // 0xE9 is 'é' in latin-1; ifind never folds bytes >= 0x80, so the compiled
  // fold table must not either.
  std::vector<MatchRule> rules(1);
  rules[0].name = "high";
  rules[0].traffic_class = "web";
  rules[0].keywords = {std::string("\xc9video")};
  Bytes hit = to_bytes("xx\xc9VIDEOzz");
  Bytes miss = to_bytes("xx\xe9VIDEOzz");  // 0xE9 != 0xC9 without folding
  expect_identical(rules, BytesView(hit), RuleContext{});
  expect_identical(rules, BytesView(miss), RuleContext{});
}

TEST(MatchProgramDiff, EmptyContentAndEmptyKeyword) {
  std::vector<MatchRule> rules(2);
  rules[0].name = "empty-kw";
  rules[0].traffic_class = "web";
  rules[0].keywords = {""};
  rules[1].name = "no-kw";
  rules[1].traffic_class = "web";
  expect_identical(rules, BytesView{}, RuleContext{});
  Bytes c = to_bytes("anything");
  expect_identical(rules, BytesView(c), RuleContext{});
}

TEST(MatchProgramDiff, OverlappingKeywordsFirstOccurrence) {
  std::vector<MatchRule> rules(1);
  rules[0].name = "overlap";
  rules[0].traffic_class = "video";
  rules[0].keywords = {"googlevideo", "video", "google", "o"};
  Bytes c = to_bytes("x googlegooglevideo trailer");
  expect_identical(rules, BytesView(c), RuleContext{});
}

TEST(MatchProgramDiff, StunGuardAndOffsets) {
  std::vector<MatchRule> rules(1);
  rules[0].name = "skype";
  rules[0].traffic_class = "voip";
  rules[0].udp = true;
  rules[0].stun_attribute = kStunAttrMsServiceQuality;
  StunMessage msg;
  msg.message_type = 0x0001;
  msg.transaction_id = Bytes(12, 0x42);
  StunAttribute pad;  // 3-byte value: offset walk must honor padding
  pad.type = 0x1234;
  pad.value = Bytes(3, 0x01);
  msg.attributes.push_back(pad);
  StunAttribute sq;
  sq.type = kStunAttrMsServiceQuality;
  sq.value = Bytes(5, 0x02);
  msg.attributes.push_back(sq);
  Bytes stun = serialize_stun(msg);
  RuleContext udp_ctx;
  udp_ctx.udp = true;
  expect_identical(rules, BytesView(stun), udp_ctx);
  // Same bytes on TCP: transport guard must skip before any STUN work.
  expect_identical(rules, BytesView(stun), RuleContext{});
  // Truncated STUN: parse fails, stun_failed must be reported identically.
  Bytes cut(stun.begin(), stun.begin() + 10);
  expect_identical(rules, BytesView(cut), udp_ctx);
}

TEST(MatchProgramDiff, GuardOrderPortPacketIndexTransport) {
  std::vector<MatchRule> rules(1);
  rules[0].name = "guards";
  rules[0].traffic_class = "web";
  rules[0].keywords = {"x"};
  rules[0].dst_port = 80;
  rules[0].only_packet_index = 2;
  rules[0].udp = false;
  Bytes c = to_bytes("x");
  for (std::uint16_t port : {std::uint16_t{80}, std::uint16_t{81}}) {
    for (bool udp : {false, true}) {
      for (int idx = 0; idx <= 3; ++idx) {
        RuleContext ctx;
        ctx.dst_port = port;
        ctx.udp = udp;
        if (idx > 0) ctx.packet_index = static_cast<std::size_t>(idx);
        expect_identical(rules, BytesView(c), ctx);
      }
    }
  }
}

TEST(MatchProgramDiff, NodeBudgetFallbackStaysIdentical) {
  std::vector<MatchRule> rules(1);
  rules[0].name = "budget-buster";
  rules[0].traffic_class = "bulk";
  std::string big(8000, 'q');
  rules[0].keywords = {big, "needle"};
  MatchProgram prog = MatchProgram::compile(rules);
  EXPECT_FALSE(prog.compiled());
  Bytes c = to_bytes("haystack with a needle in it");
  expect_identical(rules, BytesView(c), RuleContext{});
}

TEST(MatchProgramDiff, CompileCacheReturnsSameProgramForIdenticalRules) {
  auto rules = anchored_rule();
  auto a = MatchProgram::compile_cached(rules);
  auto b = MatchProgram::compile_cached(rules);
  EXPECT_EQ(a.get(), b.get());
  auto different = anchored_rule();
  different[0].keywords.push_back("extra");
  auto c = MatchProgram::compile_cached(different);
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a->fingerprint(), c->fingerprint());
}

TEST(MatchProgramDiff, BackendToggleSwitchesImplementations) {
  EXPECT_EQ(match_backend(), MatchBackend::kCompiled);  // the default
  set_match_backend(MatchBackend::kReference);
  EXPECT_EQ(match_backend(), MatchBackend::kReference);
  set_match_backend(MatchBackend::kCompiled);
  EXPECT_EQ(match_backend(), MatchBackend::kCompiled);
}

}  // namespace
}  // namespace liberate::dpi
