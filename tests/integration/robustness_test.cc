// Failure injection: evasion must survive real-path imperfections — loss
// (retransmitted matching payloads re-enter the shim and must be
// re-transformed identically) and jitter-induced reordering.
#include <gtest/gtest.h>

#include "core/evasion/registry.h"
#include "core/replay.h"
#include "dpi/normalizer.h"
#include "netsim/faulty.h"
#include "stack/host.h"
#include "trace/generators.h"

namespace liberate::core {
namespace {

using namespace netsim;
using stack::Host;
using stack::OsProfile;
using stack::TcpConnection;

TEST(Robustness, TcpSurvivesHeavyLoss) {
  EventLoop loop;
  Network net{loop};
  net.emplace<FaultyLink>(FaultPolicy{.loss = 0.08}, /*seed=*/42);
  Host client(net.client_port(), ip_addr("10.0.0.1"),
              OsProfile::linux_profile());
  Host server(net.server_port(), ip_addr("10.9.9.9"),
              OsProfile::linux_profile());
  net.attach_client(&client);
  net.attach_server(&server);

  Rng rng(3);
  Bytes blob = rng.bytes(64 * 1024);
  Bytes got;
  server.tcp_listen(80, [&](TcpConnection& c) {
    c.on_data([&](BytesView d) { got.insert(got.end(), d.begin(), d.end()); });
  });
  auto& conn = client.tcp_connect(ip_addr("10.9.9.9"), 80);
  conn.on_established([&] { conn.send(BytesView(blob)); });
  loop.run_until_idle();
  EXPECT_EQ(got, blob);
  EXPECT_GT(conn.retransmissions(), 0u);
}

// A testbed-like DPI environment with loss in front of the classifier: the
// split technique must still evade even when pieces are retransmitted.
class LossyEvasion : public ::testing::TestWithParam<double> {};

TEST_P(LossyEvasion, SplitStillEvadesUnderLoss) {
  auto env = dpi::make_testbed();
  // The profile path is fixed; put loss between the client and the path by
  // wrapping the client port... simplest: build the rig via ReplayRunner and
  // inject loss with a dedicated environment clone is invasive. Instead,
  // drive a custom network with the same classifier config plus loss.
  dpi::MiddleboxConfig mc = env->dpi->config();

  auto lossy_env = std::make_unique<dpi::Environment>();
  lossy_env->name = "testbed-lossy";
  lossy_env->signal = dpi::Environment::Signal::kDirect;
  lossy_env->net.emplace<FaultyLink>(FaultPolicy{.loss = GetParam()},
                                     /*seed=*/7);
  lossy_env->net.emplace<RouterHop>(ip_addr("10.8.0.1"));
  lossy_env->dpi = &lossy_env->net.emplace<dpi::DpiMiddlebox>(mc);
  lossy_env->net.emplace<RouterHop>(ip_addr("10.8.0.2"));
  lossy_env->hops_before_middlebox = 1;

  ReplayRunner runner(*lossy_env);
  auto app = trace::amazon_video_trace(32 * 1024);

  TcpSegmentSplit split(/*reversed=*/false);
  ReplayOptions opts;
  opts.technique = &split;
  opts.context.matching_snippets = {
      to_bytes("Host: d25xi40x97liuc.cloudfront.net")};
  opts.timeout = seconds(120);
  auto outcome = runner.run(app, opts);

  EXPECT_TRUE(outcome.completed) << "loss=" << GetParam();
  EXPECT_TRUE(outcome.payload_intact);
  EXPECT_FALSE(runner.differentiated(outcome)) << "loss=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossyEvasion,
                         ::testing::Values(0.0, 0.02, 0.05));

TEST(Robustness, JitterReorderingDeliversIntact) {
  EventLoop loop;
  Network net{loop};
  // Jitter up to 20 ms against ~1 ms packet spacing: heavy reordering.
  net.emplace<FaultyLink>(FaultPolicy{.max_jitter = milliseconds(20)},
                         /*seed=*/5);
  Host client(net.client_port(), ip_addr("10.0.0.1"),
              OsProfile::linux_profile());
  Host server(net.server_port(), ip_addr("10.9.9.9"),
              OsProfile::linux_profile());
  net.attach_client(&client);
  net.attach_server(&server);

  Rng rng(9);
  Bytes blob = rng.bytes(48 * 1024);
  Bytes got;
  server.tcp_listen(80, [&](TcpConnection& c) {
    c.on_data([&](BytesView d) { got.insert(got.end(), d.begin(), d.end()); });
  });
  auto& conn = client.tcp_connect(ip_addr("10.9.9.9"), 80);
  conn.on_established([&] { conn.send(BytesView(blob)); });
  loop.run_until_idle();
  EXPECT_EQ(got, blob);
}

// §4.3 countermeasures in action: a normalizer in front of the classifier
// kills the inert techniques it was designed against, while splitting
// (which the normalizer cannot fix without full reassembly) still works.
TEST(Robustness, NormalizerCountermeasureKillsInertButNotSplit) {
  auto base = dpi::make_testbed();
  dpi::MiddleboxConfig mc = base->dpi->config();

  auto env = std::make_unique<dpi::Environment>();
  env->name = "testbed-normalized";
  env->signal = dpi::Environment::Signal::kDirect;
  env->net.emplace<RouterHop>(ip_addr("10.8.1.1"));
  dpi::NormalizerConfig nc;
  nc.drop_malformed = true;
  nc.ttl_floor = 16;
  env->net.emplace<dpi::NormalizerElement>(nc);
  env->dpi = &env->net.emplace<dpi::DpiMiddlebox>(mc);
  env->net.emplace<RouterHop>(ip_addr("10.8.1.2"));
  env->hops_before_middlebox = 1;

  ReplayRunner runner(*env);
  auto app = trace::amazon_video_trace(32 * 1024);
  TechniqueContext ctx;
  ctx.matching_snippets = {to_bytes("Host: d25xi40x97liuc.cloudfront.net")};
  ctx.decoy_payload = decoy_request_payload();
  ctx.middlebox_ttl = 2;

  auto run_with = [&](Technique& t) {
    ReplayOptions opts;
    opts.technique = &t;
    opts.context = ctx;
    auto out = runner.run(app, opts);
    return !runner.differentiated(out) && out.completed;
  };

  InertInsertion bad_checksum(InertVariant::kWrongTcpChecksum);
  EXPECT_FALSE(run_with(bad_checksum));  // normalizer ate the inert packet

  InertInsertion low_ttl(InertVariant::kLowTtl);
  // TTL floor: the decoy now REACHES the server... so classification still
  // changes, but the decoy corrupts the stream — not a usable evasion.
  ReplayOptions opts;
  opts.technique = &low_ttl;
  opts.context = ctx;
  auto ttl_out = runner.run(app, opts);
  EXPECT_FALSE(ttl_out.payload_intact);

  TcpSegmentSplit split(false);
  EXPECT_TRUE(run_with(split));  // still effective (paper: reassembly and
                                 // state cost money; normalization alone
                                 // does not stop splitting)
}

}  // namespace
}  // namespace liberate::core
