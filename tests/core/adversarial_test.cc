// Adversarial middleboxes (§4.2 / §5.1 countermeasures) and lib·erate's
// answers: replay-server whitelisting beaten by unseen servers, and
// inversion-aware classification beaten by the randomization fallback.
#include <gtest/gtest.h>

#include "core/detection.h"
#include "trace/generators.h"

namespace liberate::core {
namespace {

// A GFC that whitelists the default replay server: plain detection sees a
// clean network; a previously unseen server exposes the censor.
std::unique_ptr<dpi::Environment> gfc_with_whitelist(std::uint32_t ip) {
  auto env = dpi::make_gfc();
  // Rebuild the middlebox config with a whitelist. The environment path is
  // fixed, so swap the config knob via a fresh environment assembled the
  // same way — simplest here: mutate through a new middlebox is not
  // exposed, so construct manually.
  auto fresh = std::make_unique<dpi::Environment>();
  fresh->name = "gfc-whitelisting";
  fresh->signal = dpi::Environment::Signal::kBlocking;
  dpi::MiddleboxConfig mc = env->dpi->config();
  mc.whitelisted_server_ips = {ip};
  for (int i = 0; i < 3; ++i) {
    fresh->net.emplace<netsim::RouterHop>(netsim::ip_addr("10.3.9.1") +
                                          static_cast<std::uint32_t>(i));
  }
  fresh->dpi = &fresh->net.emplace<dpi::DpiMiddlebox>(mc);
  fresh->net.emplace<netsim::RouterHop>(netsim::ip_addr("10.3.9.100"));
  fresh->hops_before_middlebox = 3;
  return fresh;
}

constexpr std::uint32_t kDefaultReplayServer = 0xc6336414;  // 198.51.100.20
constexpr std::uint32_t kUnseenServer = 0xc6336499;         // 198.51.100.153

TEST(Adversarial, WhitelistedReplayServerHidesTheCensor) {
  auto env = gfc_with_whitelist(kDefaultReplayServer);
  ReplayRunner runner(*env);
  auto result = detect_differentiation(runner, trace::economist_trace());
  EXPECT_FALSE(result.differentiation);  // the censor hid successfully
}

TEST(Adversarial, UnseenServerExposesTheCensor) {
  auto env = gfc_with_whitelist(kDefaultReplayServer);
  ReplayRunner runner(*env);
  auto result = detect_differentiation_robust(runner, trace::economist_trace(),
                                              {kUnseenServer});
  EXPECT_TRUE(result.differentiation);
  EXPECT_TRUE(result.content_based);
  EXPECT_TRUE(result.needed_unseen_server);
  // The cost covers the failed attempt from the default server too.
  EXPECT_EQ(result.rounds, runner.rounds());
  EXPECT_DOUBLE_EQ(result.virtual_seconds, runner.virtual_seconds_elapsed());
}

TEST(Adversarial, RobustDetectionOnCleanNetworkStaysNegative) {
  auto env = dpi::make_sprint();
  ReplayRunner runner(*env);
  auto result = detect_differentiation_robust(
      runner, trace::amazon_video_trace(32 * 1024), {kUnseenServer});
  EXPECT_FALSE(result.differentiation);
  EXPECT_FALSE(result.needed_unseen_server);
}

// An inversion-aware censor: it matches the censored hostname AND its
// bit-inverted form, so the standard control replay is also blocked.
TEST(Adversarial, InversionAwareCensorBeatenByRandomizationFallback) {
  auto env = dpi::make_gfc();
  {
    auto rules = env->dpi->engine().rules();
    dpi::MatchRule inverted;
    inverted.name = "gfc-economist-inverted";
    inverted.traffic_class = "censored";
    std::string host = "economist.com";
    std::string flipped;
    for (char c : host) flipped.push_back(static_cast<char>(~c));
    inverted.keywords = {flipped};
    rules.push_back(inverted);
    env->dpi->engine().set_rules(rules);
  }
  ReplayRunner runner(*env);
  auto result = detect_differentiation(runner, trace::economist_trace());
  EXPECT_TRUE(result.differentiation);
  // The inverted control was blocked too, but the random-payload fallback
  // still pinned the policy to content.
  EXPECT_TRUE(result.content_based);
  EXPECT_TRUE(result.used_randomization_fallback);
}

TEST(Adversarial, NoFallbackOnHonestClassifier) {
  auto env = dpi::make_gfc();
  ReplayRunner runner(*env);
  auto result = detect_differentiation(runner, trace::economist_trace());
  EXPECT_TRUE(result.content_based);
  EXPECT_FALSE(result.used_randomization_fallback);
  EXPECT_EQ(result.rounds, 2);  // no extra control round needed
}

}  // namespace
}  // namespace liberate::core
