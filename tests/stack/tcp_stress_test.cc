// Stress/edge coverage for the TCP endpoint: simultaneous bidirectional
// bulk, many concurrent connections, interleaved close patterns.
#include <gtest/gtest.h>

#include "netsim/faulty.h"
#include "netsim/network.h"
#include "stack/host.h"
#include "util/rng.h"

namespace liberate::stack {
namespace {

using namespace netsim;

struct Rig {
  EventLoop loop;
  Network net{loop};
  Host client;
  Host server;

  Rig()
      : client(net.client_port(), ip_addr("10.0.0.1"),
               OsProfile::linux_profile()),
        server(net.server_port(), ip_addr("10.9.9.9"),
               OsProfile::linux_profile()) {
    net.attach_client(&client);
    net.attach_server(&server);
  }
};

TEST(TcpStress, SimultaneousBidirectionalBulk) {
  Rig rig;
  Rng rng(21);
  Bytes up = rng.bytes(96 * 1024);
  Bytes down = rng.bytes(96 * 1024);
  Bytes got_up, got_down;
  rig.server.tcp_listen(80, [&](TcpConnection& c) {
    c.on_data([&](BytesView d) {
      got_up.insert(got_up.end(), d.begin(), d.end());
    });
    c.send(BytesView(down));  // server pushes immediately, full duplex
  });
  auto& conn = rig.client.tcp_connect(ip_addr("10.9.9.9"), 80);
  conn.on_data([&](BytesView d) {
    got_down.insert(got_down.end(), d.begin(), d.end());
  });
  conn.on_established([&] { conn.send(BytesView(up)); });
  rig.loop.run_until_idle();
  EXPECT_EQ(got_up, up);
  EXPECT_EQ(got_down, down);
}

TEST(TcpStress, TenConcurrentConnectionsStayIsolated) {
  Rig rig;
  std::map<std::uint16_t, std::string> received;  // by server-side src port
  rig.server.tcp_listen(80, [&](TcpConnection& c) {
    std::uint16_t peer = c.tuple().dst_port;
    c.on_data([&received, peer](BytesView d) {
      received[peer] += to_string(d);
    });
  });
  std::vector<TcpConnection*> conns;
  for (int i = 0; i < 10; ++i) {
    auto& conn = rig.client.tcp_connect(ip_addr("10.9.9.9"), 80);
    conns.push_back(&conn);
    std::string msg = "hello from connection " + std::to_string(i);
    conn.on_established([&conn, msg] { conn.send(std::string_view(msg)); });
  }
  rig.loop.run_until_idle();
  ASSERT_EQ(received.size(), 10u);
  int idx = 0;
  for (auto* c : conns) {
    std::string expected = "hello from connection " + std::to_string(idx++);
    EXPECT_EQ(received[c->tuple().src_port], expected);
  }
}

TEST(TcpStress, DataThenImmediateCloseDeliversEverything) {
  Rig rig;
  Rng rng(31);
  Bytes blob = rng.bytes(200 * 1024);  // multiple windows worth
  Bytes got;
  bool closed = false;
  rig.server.tcp_listen(80, [&](TcpConnection& c) {
    c.on_data([&](BytesView d) { got.insert(got.end(), d.begin(), d.end()); });
    c.on_closed([&] { closed = true; });
  });
  auto& conn = rig.client.tcp_connect(ip_addr("10.9.9.9"), 80);
  conn.on_established([&] {
    conn.send(BytesView(blob));
    conn.close();  // FIN must queue behind all buffered data
  });
  rig.loop.run_until_idle();
  EXPECT_EQ(got, blob);
  // Peer saw our FIN only after every byte; its own close completes too.
  EXPECT_EQ(conn.state(), TcpConnection::State::kFinWait);
  (void)closed;  // server stays in CLOSE_WAIT until it closes; not required
}

TEST(TcpStress, CloseUnderLossStillCompletes) {
  EventLoop loop;
  Network net{loop};
  net.emplace<FaultyLink>(FaultPolicy{.loss = 0.1}, 77);
  Host client(net.client_port(), ip_addr("10.0.0.1"),
              OsProfile::linux_profile());
  Host server(net.server_port(), ip_addr("10.9.9.9"),
              OsProfile::linux_profile());
  net.attach_client(&client);
  net.attach_server(&server);

  bool client_closed = false;
  bool server_closed = false;
  std::string got;
  server.tcp_listen(80, [&](TcpConnection& c) {
    c.on_data([&, pc = &c](BytesView d) {
      got += to_string(d);
      pc->close();
    });
    c.on_closed([&] { server_closed = true; });
  });
  auto& conn = client.tcp_connect(ip_addr("10.9.9.9"), 80);
  conn.on_closed([&] { client_closed = true; });
  conn.on_established([&] {
    conn.send(std::string_view("final words"));
    conn.close();
  });
  loop.run_until_idle();
  EXPECT_EQ(got, "final words");
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
}

TEST(TcpStress, ListenerRemovalRefusesNewConnections) {
  Rig rig;
  rig.server.tcp_listen(80, [](TcpConnection&) {});
  bool first_ok = false;
  auto& c1 = rig.client.tcp_connect(ip_addr("10.9.9.9"), 80);
  c1.on_established([&] { first_ok = true; });
  rig.loop.run_until_idle();
  EXPECT_TRUE(first_ok);

  rig.server.tcp_unlisten(80);
  bool second_reset = false;
  auto& c2 = rig.client.tcp_connect(ip_addr("10.9.9.9"), 80);
  c2.on_reset([&] { second_reset = true; });
  rig.loop.run_until_idle();
  EXPECT_TRUE(second_reset);
}

}  // namespace
}  // namespace liberate::stack
