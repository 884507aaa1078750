// Match-program fuzz smoke: the differential campaign in match_fuzz.cc, sized
// for CI. Locally a few hundred iterations; the CI fuzz-smoke job raises
// LIBERATE_FUZZ_ITERATIONS under ASan/UBSan, where a compiled-matcher
// out-of-bounds read (automaton table, scratch stamps) dies loudly even when
// verdicts happen to agree. Any divergence names the exact iteration seed —
// `run_match_program_iteration(seed, stats)` is the whole repro.
#include "fuzz/fuzz.h"

#include <gtest/gtest.h>

namespace liberate::fuzz {
namespace {

constexpr std::uint64_t kMatchBaseSeed = 0x3A7C4;

TEST(FuzzSmokeMatch, CampaignRunsCleanAndCoversEveryPath) {
  const std::uint64_t iterations = campaign_iterations(400);
  FuzzStats stats;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed = iteration_seed(kMatchBaseSeed, i);
    run_match_program_iteration(seed, stats);
    ASSERT_EQ(stats.match_divergences, 0u)
        << "repro: liberate::fuzz::run_match_program_iteration(0x" << std::hex
        << seed << "ULL, stats)";
  }
  EXPECT_EQ(stats.match_programs_compiled, iterations);
  EXPECT_GE(stats.match_cases_checked, 12 * iterations);
}

TEST(FuzzSmokeMatch, CampaignIsDeterministic) {
  FuzzStats a = run_match_program_campaign(5, 50);
  FuzzStats b = run_match_program_campaign(5, 50);
  EXPECT_EQ(a.match_cases_checked, b.match_cases_checked);
  EXPECT_EQ(a.match_programs_compiled, b.match_programs_compiled);
  EXPECT_EQ(a.match_fallback_programs, b.match_fallback_programs);
  EXPECT_EQ(a.match_divergences, 0u);
  EXPECT_EQ(b.match_divergences, 0u);
}

TEST(FuzzMatchCorpus, EveryCheckedInEntryReplaysClean) {
  auto entries = load_corpus(std::string(LIBERATE_FUZZ_CORPUS_DIR) + "/match");
  ASSERT_GE(entries.size(), 8u)
      << "expected the checked-in match corpus at "
      << LIBERATE_FUZZ_CORPUS_DIR << "/match";
  FuzzStats stats;
  for (const auto& entry : entries) {
    SCOPED_TRACE(entry.name);
    run_match_corpus_entry(BytesView(entry.data), stats);
    ASSERT_EQ(stats.match_divergences, 0u);
  }
  EXPECT_EQ(stats.match_cases_checked, entries.size() * 4);
}

}  // namespace
}  // namespace liberate::fuzz
