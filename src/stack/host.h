// host.h — an endpoint: network stack + OS validation profile + sockets.
//
// A Host receives raw datagrams from the Network, applies its OS profile
// (Table 3 server-response behaviour), reassembles IP fragments, and
// demultiplexes to TCP connections / listeners and UDP sockets. It also
// records a raw packet tap *before* OS validation — the replay server uses
// this to answer Table 3's "did the packet Reach the Server?" (RS?) question,
// which is about the wire, not about what the kernel accepts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "netsim/network.h"
#include "stack/ip_reassembly.h"
#include "util/arena.h"
#include "stack/os_profile.h"
#include "stack/tcp_endpoint.h"
#include "stack/udp_endpoint.h"

namespace liberate::stack {

class Host : public netsim::HostIface {
 public:
  Host(netsim::NetworkPort& port, std::uint32_t address, OsProfile os);

  std::uint32_t address() const { return address_; }
  const OsProfile& os() const { return os_; }
  netsim::EventLoop& loop() { return port_.loop(); }

  /// --- TCP ---------------------------------------------------------------
  using AcceptCallback = std::function<void(TcpConnection&)>;
  /// Active open. The returned connection is owned by the Host.
  TcpConnection& tcp_connect(std::uint32_t dst_ip, std::uint16_t dst_port,
                             std::uint16_t src_port = 0);
  /// Passive open: invoke `cb` for each accepted connection on `port`.
  void tcp_listen(std::uint16_t port, AcceptCallback cb);
  void tcp_unlisten(std::uint16_t port);

  /// --- UDP ---------------------------------------------------------------
  UdpSocket& udp_bind(std::uint16_t port);

  /// --- Raw access (lib·erate's crafted packets) --------------------------
  void send_raw(Bytes datagram) { port_.send(std::move(datagram)); }
  using IcmpCallback =
      std::function<void(const netsim::PacketView&, const netsim::IcmpMessage&)>;
  void on_icmp(IcmpCallback cb) { on_icmp_ = std::move(cb); }

  /// Every datagram as seen on the wire, pre-validation (the RS? tap).
  /// Arena-backed views: one bump allocation per packet instead of a heap
  /// vector copy. Views stay valid until clear_raw_received().
  const std::vector<BytesView>& raw_received() const { return raw_received_; }
  void clear_raw_received() {
    raw_received_.clear();
    raw_arena_.reset();
  }
  std::uint64_t dropped_by_os() const { return dropped_by_os_; }
  std::uint64_t rsts_sent() const { return rsts_sent_; }

  /// netsim::HostIface
  void receive(Bytes datagram) override;

  /// Stack-internal: segment/datagram transmission for endpoints.
  void transmit(Bytes datagram) { port_.send(std::move(datagram)); }

 private:
  void handle_validated(const netsim::PacketView& pkt);
  void handle_tcp(const netsim::PacketView& pkt);
  void handle_udp(const netsim::PacketView& pkt, bool truncated);
  void respond_rst(const netsim::PacketView& pkt);

  netsim::NetworkPort& port_;
  std::uint32_t address_;
  OsProfile os_;
  IpReassembler reassembler_;

  std::map<netsim::FiveTuple, std::unique_ptr<TcpConnection>> connections_;
  std::map<std::uint16_t, AcceptCallback> listeners_;
  std::map<std::uint16_t, std::unique_ptr<UdpSocket>> udp_sockets_;

  std::vector<BytesView> raw_received_;
  Arena raw_arena_;
  std::uint64_t dropped_by_os_ = 0;
  std::uint64_t rsts_sent_ = 0;
  std::uint16_t next_ephemeral_port_ = 40000;
  std::uint32_t next_iss_ = 100000;
  IcmpCallback on_icmp_;
};

}  // namespace liberate::stack
