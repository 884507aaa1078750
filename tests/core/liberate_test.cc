// End-to-end facade tests: the four automated phases against each
// environment, plus runtime adaptation and live deployment.
#include "core/liberate.h"

#include <gtest/gtest.h>

#include "stack/host.h"
#include "trace/generators.h"

namespace liberate::core {
namespace {

TEST(Liberate, TestbedEndToEnd) {
  auto env = dpi::make_testbed();
  Liberate lib(*env);
  auto report = lib.analyze(trace::amazon_video_trace(32 * 1024));

  EXPECT_TRUE(report.detection.content_based);
  EXPECT_TRUE(report.ran_characterization);
  ASSERT_TRUE(report.selected_technique.has_value());
  EXPECT_GT(report.total_rounds, 10);
  EXPECT_GT(report.total_bytes, 0u);
}

TEST(Liberate, SprintStopsAfterDetection) {
  auto env = dpi::make_sprint();
  Liberate lib(*env);
  auto report = lib.analyze(trace::amazon_video_trace(32 * 1024));
  EXPECT_FALSE(report.detection.differentiation);
  EXPECT_FALSE(report.ran_characterization);
  EXPECT_FALSE(report.selected_technique.has_value());
  EXPECT_EQ(report.total_rounds, 2);  // original + inverted control
}

TEST(Liberate, GfcSelectsWorkingTechnique) {
  auto env = dpi::make_gfc();
  env->loop.run_until(netsim::hours(16));
  Liberate lib(*env);
  auto report = lib.analyze(trace::economist_trace());
  EXPECT_TRUE(report.detection.content_based);
  ASSERT_TRUE(report.selected_technique.has_value());

  // Deploy it on a live flow and verify the censored page now loads.
  auto deployment = lib.deploy(report, env->net.client_port());
  ASSERT_NE(deployment, nullptr);
  stack::Host client(deployment->port(), netsim::ip_addr("10.0.0.1"),
                     stack::OsProfile::linux_profile());
  stack::Host server(env->net.server_port(), netsim::ip_addr("198.51.100.20"),
                     stack::OsProfile::linux_profile());
  env->net.attach_client(&client);
  env->net.attach_server(&server);

  std::string got;
  server.tcp_listen(80, [&](stack::TcpConnection& c) {
    c.on_data([&, pc = &c](BytesView d) {
      got += to_string(d);
      if (got.find("\r\n\r\n") != std::string::npos) {
        pc->send(std::string_view("HTTP/1.1 200 OK\r\n\r\ncensored article"));
      }
    });
  });
  std::string page;
  auto& conn = client.tcp_connect(netsim::ip_addr("198.51.100.20"), 80, 33001);
  conn.on_data([&](BytesView d) { page += to_string(d); });
  conn.on_established([&] {
    conn.send(std::string_view(
        "GET /news HTTP/1.1\r\nHost: www.economist.com\r\n\r\n"));
  });
  env->loop.run_for(netsim::minutes(5));
  EXPECT_NE(page.find("censored article"), std::string::npos);
  EXPECT_FALSE(conn.was_reset());
  env->net.attach_client(nullptr);
  env->net.attach_server(nullptr);
}

TEST(Liberate, IranSelectsSplitting) {
  auto env = dpi::make_iran();
  Liberate lib(*env);
  auto report = lib.analyze(trace::facebook_trace());
  ASSERT_TRUE(report.selected_technique.has_value());
  // Only splitting/reordering can beat an inspect-every-packet censor.
  bool split_family =
      report.selected_technique->find("split/") != std::string::npos ||
      report.selected_technique->find("reorder/") != std::string::npos;
  EXPECT_TRUE(split_family) << *report.selected_technique;
}

TEST(Liberate, ReadaptDoesNothingWhileRulesHold) {
  auto env = dpi::make_testbed();
  Liberate lib(*env);
  auto t = trace::amazon_video_trace(32 * 1024);
  auto report = lib.analyze(t);
  ASSERT_TRUE(report.selected_technique.has_value());
  auto verdict = lib.readapt(report, t);
  EXPECT_TRUE(verdict.still_working);
  // The cheap path still accounts for the probe cost it spent: exactly one
  // verification replay, not the dozens a full analysis takes.
  EXPECT_EQ(verdict.report.total_rounds, 1);
  EXPECT_GT(verdict.report.total_bytes, 0u);
  EXPECT_LT(verdict.report.total_rounds, report.total_rounds);
  // The selection itself is preserved from the previous report.
  EXPECT_EQ(verdict.report.selected_technique, report.selected_technique);
}

TEST(Liberate, ReadaptRecoversFromRuleChange) {
  auto env = dpi::make_testbed();
  Liberate lib(*env);
  auto t = trace::amazon_video_trace(32 * 1024);
  auto report = lib.analyze(t);
  ASSERT_TRUE(report.selected_technique.has_value());
  const std::string first_technique = *report.selected_technique;

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

  auto verdict = lib.readapt(report, t);
  EXPECT_FALSE(verdict.still_working);
  const SessionReport& fresh = verdict.report;
  ASSERT_TRUE(fresh.selected_technique.has_value());
  // Totals fold the failed verification replay into the re-analysis cost.
  EXPECT_GT(fresh.total_rounds, 10);
  // The new analysis found the new matching field, in the server's message.
  std::string fields;
  bool in_server_message = false;
  for (const auto& f : fresh.characterization.fields) {
    fields += to_string(BytesView(f.content)) + "|";
    if (f.message_index == 1) in_server_message = true;
  }
  EXPECT_NE(fields.find("video/mp4"), std::string::npos);
  EXPECT_TRUE(in_server_message);
  (void)first_technique;
}

// A technique that gets the exchange through unclassified but corrupts the
// payload is not working: evaluation would never have selected it, so
// readapt must not keep it either. An inert packet that outlives the
// middlebox (TTL 30) reaches the server and lands in the delivered bytes.
TEST(Liberate, ReadaptReanalyzesWhenTechniqueCorruptsPayload) {
  auto env = dpi::make_testbed();
  Liberate lib(*env);
  auto t = trace::amazon_video_trace(8 * 1024);
  SessionReport report = lib.analyze(t);
  ASSERT_TRUE(report.selected_technique.has_value());

  SessionReport corrupting = report;
  corrupting.selected_technique = "inert/ip-low-ttl";
  corrupting.characterization.middlebox_hops = 30;
  {
    RoundRequest probe;
    probe.trace = t;
    probe.technique = *corrupting.selected_technique;
    probe.context = deployment_context(corrupting);
    RoundResult r = lib.runner().run(probe);
    ASSERT_TRUE(r.outcome.completed);
    ASSERT_FALSE(r.differentiated);
    ASSERT_FALSE(r.outcome.payload_intact);
  }

  ReadaptResult verdict = lib.readapt(corrupting, t);
  EXPECT_FALSE(verdict.still_working);
  ASSERT_EQ(verdict.ladder.size(), 2u);
  EXPECT_EQ(verdict.ladder[0].stage, "still-working");
  EXPECT_EQ(verdict.ladder[1].stage, "full-analysis");
  EXPECT_EQ(verdict.report.selected_technique, report.selected_technique);
}

TEST(Liberate, UdpSkypeOnTestbed) {
  auto env = dpi::make_testbed();
  Liberate lib(*env);
  auto report = lib.analyze(trace::make_skype_trace({}));
  EXPECT_TRUE(report.detection.content_based);
  ASSERT_TRUE(report.selected_technique.has_value());
  EXPECT_TRUE(
      report.selected_technique->find("udp") != std::string::npos ||
      report.selected_technique->find("flush") != std::string::npos)
      << *report.selected_technique;
}

}  // namespace
}  // namespace liberate::core
