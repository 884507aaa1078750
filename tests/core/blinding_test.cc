#include "core/blinding.h"

#include "core/evasion/technique.h"

#include <gtest/gtest.h>

#include "dpi/rules.h"
#include "trace/generators.h"

namespace liberate::core {
namespace {

// A synthetic oracle: "classified" iff a rule matches some client message
// (no network involved) — lets us verify the search logic and count rounds
// precisely.
ClassificationOracle oracle_for(dpi::MatchRule rule) {
  return [rule](const std::vector<trace::ApplicationTrace>& probes) {
    std::vector<bool> verdicts;
    for (const auto& t : probes) {
      bool classified = false;
      for (const auto& m : t.messages) {
        if (m.sender != trace::Sender::kClient) continue;
        classified = classified || rule.matches_content(BytesView(m.payload));
      }
      verdicts.push_back(classified);
    }
    return verdicts;
  };
}

TEST(Blinding, BlindRangeInvertsExactlyThatRange) {
  auto t = trace::economist_trace();
  auto blinded = blind_range(t, 0, 4, 3);
  const Bytes& orig = t.messages[0].payload;
  const Bytes& mod = blinded.messages[0].payload;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (i >= 4 && i < 7) {
      EXPECT_EQ(mod[i], static_cast<std::uint8_t>(~orig[i]));
    } else {
      EXPECT_EQ(mod[i], orig[i]);
    }
  }
}

TEST(Blinding, FindsSingleKeywordField) {
  auto t = trace::amazon_video_trace(16 * 1024);
  dpi::MatchRule rule;
  rule.keywords = {"Host: d25xi40x97liuc.cloudfront.net"};
  BlindingStats stats;
  auto fields = find_matching_fields(t, oracle_for(rule), &stats, 4);

  ASSERT_FALSE(fields.empty());
  // All fields are in the request (message 0) and together they cover the
  // keyword.
  std::string req = to_string(BytesView(t.messages[0].payload));
  std::size_t kw_begin = req.find("Host: d25xi40x97liuc.cloudfront.net");
  std::size_t kw_end =
      kw_begin + std::string("Host: d25xi40x97liuc.cloudfront.net").size();
  std::size_t covered_begin = fields.front().offset;
  std::size_t covered_end = fields.back().offset + fields.back().length;
  EXPECT_EQ(fields.front().message_index, 0u);
  EXPECT_LE(covered_begin, kw_begin);
  EXPECT_GE(covered_end, kw_end);
  // ...without grossly over-reporting (within granularity slack).
  EXPECT_GE(covered_begin + 8, kw_begin);
  EXPECT_LE(covered_end, kw_end + 8);
  EXPECT_GT(stats.replay_rounds, 0);
}

TEST(Blinding, FindsBothKeywordsOfAndRule) {
  auto t = trace::economist_trace();
  dpi::MatchRule rule;
  rule.keywords = {"GET", "economist.com"};
  BlindingStats stats;
  auto fields = find_matching_fields(t, oracle_for(rule), &stats, 4);

  ASSERT_GE(fields.size(), 2u);  // two separate necessary regions
  std::string all;
  for (const auto& f : fields) all += to_string(BytesView(f.content)) + "|";
  EXPECT_NE(all.find("GET"), std::string::npos);
  EXPECT_NE(all.find("economist"), std::string::npos);
}

TEST(Blinding, RoundCountInPaperBallpark) {
  // §6.1: "lib·erate needs at most 70 replay rounds" for HTTP; §6.5: 86 for
  // the GFC trace. Our algorithm should land in the same few-dozen range.
  auto t = trace::economist_trace();
  dpi::MatchRule rule;
  rule.keywords = {"GET", "economist.com"};
  rule.anchored = true;
  BlindingStats stats;
  find_matching_fields(t, oracle_for(rule), &stats, 4);
  EXPECT_GT(stats.replay_rounds, 10);
  EXPECT_LT(stats.replay_rounds, 150);
}

TEST(Blinding, NoFieldsWhenNothingMatches) {
  auto t = trace::plain_web_trace();
  dpi::MatchRule rule;
  rule.keywords = {"economist.com"};
  BlindingStats stats;
  auto fields = find_matching_fields(t, oracle_for(rule), &stats, 4);
  EXPECT_TRUE(fields.empty());
  // The baseline probe alone settles it.
  EXPECT_EQ(stats.replay_rounds, 1);
}

TEST(Blinding, SnippetsUsableForMatchingRanges) {
  auto t = trace::facebook_trace();
  dpi::MatchRule rule;
  rule.keywords = {"facebook.com"};
  BlindingStats stats;
  auto fields = find_matching_fields(t, oracle_for(rule), &stats, 4);
  ASSERT_FALSE(fields.empty());
  // The extracted content, used as a snippet, matches the original payload.
  std::vector<Bytes> snippets;
  for (const auto& f : fields) snippets.push_back(f.content);
  EXPECT_FALSE(
      matching_ranges(BytesView(t.messages[0].payload), snippets).empty());
}

}  // namespace
}  // namespace liberate::core
