// End-to-end facade tests: the automated phases against each environment,
// plus live deployment. Runtime adaptation is tested with its ladder in
// tests/deploy/recharacterize_test.cc.
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
