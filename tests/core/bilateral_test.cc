// The §7 bilateral finding: "inserting even one packet carrying dummy
// traffic (that is ignored by the server) at the beginning of a flow evades
// classification in our testbed, T-Mobile, AT&T, and the GFC."
#include "core/bilateral.h"

#include <gtest/gtest.h>

#include "core/blinding.h"
#include "core/replay.h"
#include "trace/generators.h"

namespace liberate::core {
namespace {

TEST(Bilateral, PrependsOneDummyClientMessage) {
  auto t = trace::economist_trace();
  auto b = with_bilateral_prepend(t);
  ASSERT_EQ(b.messages.size(), t.messages.size() + 1);
  EXPECT_EQ(b.messages[0].sender, trace::Sender::kClient);
  EXPECT_EQ(b.messages[0].payload.size(), 1u);
  EXPECT_EQ(b.messages[0].payload[0], 0x00);
  EXPECT_EQ(bilateral_discard_bytes({}), 1u);
}

struct Case {
  const char* env;
  trace::ApplicationTrace trace;
};

TEST(Bilateral, OneDummyByteEvadesAnchoredClassifiers) {
  // T-Mobile (GET/TLS stream anchor), the GFC (anchored GET rules) and AT&T
  // (proxy parses the request line) all fall to one dummy byte. Our testbed
  // model's TCP matcher is per-packet and position-insensitive, so the
  // prepend only shifts the matching packet within its 5-packet window —
  // see EXPERIMENTS.md for this documented divergence from the paper's
  // summary bullet (its testbed evidence concerns the position-indexed UDP
  // rule, covered below).
  std::vector<Case> cases;
  cases.push_back({"tmus", trace::amazon_video_trace(220 * 1024)});
  cases.push_back({"gfc", trace::economist_trace()});
  cases.push_back({"att", trace::nbcsports_trace(768 * 1024)});

  for (auto& c : cases) {
    auto env = dpi::make_environment(c.env);
    ReplayRunner runner(*env);

    // Baseline: differentiated.
    auto baseline = runner.run(c.trace);
    ASSERT_TRUE(runner.differentiated(baseline)) << c.env;

    // Bilateral: same exchange, one dummy byte first (the replay server is
    // the cooperating endpoint: it knows the transformed trace).
    ReplayOptions opts;
    opts.server_port_override = 28123;  // a fresh port (GFC escalation)
    auto out = runner.run(with_bilateral_prepend(c.trace), opts);
    EXPECT_TRUE(out.completed) << c.env;
    EXPECT_FALSE(runner.differentiated(out)) << c.env;
  }
}

TEST(Bilateral, DummyFirstDatagramEvadesTestbedUdpRule) {
  // The testbed's Skype rule matches the STUN attribute in the FIRST client
  // packet: a dummy datagram shifts it to position 2.
  auto env = dpi::make_testbed();
  ReplayRunner runner(*env);
  auto baseline = runner.run(trace::make_skype_trace({}));
  ASSERT_TRUE(runner.differentiated(baseline));
  auto out = runner.run(with_bilateral_prepend(trace::make_skype_trace({})));
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(runner.differentiated(out));
}

TEST(Bilateral, DoesNotHelpAgainstIranStyleInspectEverything) {
  // Iran inspects every packet with no anchor: the dummy byte changes
  // nothing (§6.6: "prepending packets does not appear to change
  // classification results").
  auto env = dpi::make_iran();
  ReplayRunner runner(*env);
  auto out = runner.run(with_bilateral_prepend(trace::facebook_trace()));
  EXPECT_TRUE(runner.differentiated(out));
}

TEST(DistributedBlinding, MatchesSingleUserFieldsWithSplitCost) {
  auto t = trace::economist_trace();
  dpi::MatchRule rule;
  rule.keywords = {"GET", "economist.com"};
  ClassificationOracle oracle =
      [rule](const std::vector<trace::ApplicationTrace>& probes) {
        std::vector<bool> verdicts;
        for (const auto& probe : probes) {
          bool classified = false;
          for (const auto& m : probe.messages) {
            if (m.sender != trace::Sender::kClient) continue;
            classified =
                classified || rule.matches_content(BytesView(m.payload));
          }
          verdicts.push_back(classified);
        }
        return verdicts;
      };

  BlindingStats solo_stats;
  auto solo = find_matching_fields(t, oracle, &solo_stats, 4);

  // Three users, each probing a third of the messages.
  std::vector<ClassificationOracle> users(3, oracle);
  DistributedBlindingStats dist_stats;
  auto dist = find_matching_fields_distributed(t, users, &dist_stats, 4);

  ASSERT_EQ(dist.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(dist[i].message_index, solo[i].message_index);
    EXPECT_EQ(dist[i].offset, solo[i].offset);
    EXPECT_EQ(dist[i].content, solo[i].content);
  }
  // Nobody paid more than the single-user cost, and the busiest user paid
  // meaningfully less (all fields are in message 0, which one user owns;
  // the others only paid baseline + pruning probes).
  EXPECT_EQ(dist_stats.per_user.size(), 3u);
  EXPECT_LT(dist_stats.max_user_rounds(), solo_stats.replay_rounds);
  for (const auto& s : dist_stats.per_user) {
    EXPECT_GE(s.replay_rounds, 1);  // everyone at least confirmed baseline
  }
}

TEST(DistributedBlinding, EmptyUserListReturnsNothing) {
  auto t = trace::economist_trace();
  DistributedBlindingStats stats;
  EXPECT_TRUE(find_matching_fields_distributed(t, {}, &stats).empty());
}

}  // namespace
}  // namespace liberate::core
