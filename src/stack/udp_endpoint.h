// udp_endpoint.h — a bound UDP socket on a Host.
#pragma once

#include <cstdint>
#include <functional>

#include "netsim/packet.h"
#include "util/bytes.h"

namespace liberate::stack {

class Host;

class UdpSocket {
 public:
  struct Incoming {
    std::uint32_t src_ip;
    std::uint16_t src_port;
    Bytes payload;
    bool truncated;  // Linux short-length delivery (Table 3 note 5)
  };
  using ReceiveCallback = std::function<void(const Incoming&)>;

  UdpSocket(Host& host, std::uint16_t port) : host_(host), port_(port) {}

  std::uint16_t port() const { return port_; }
  void on_receive(ReceiveCallback cb) { on_receive_ = std::move(cb); }

  void send_to(std::uint32_t dst_ip, std::uint16_t dst_port, BytesView payload);

  std::uint64_t datagrams_received() const { return datagrams_received_; }

  /// Stack-internal.
  void deliver(const netsim::PacketView& pkt, bool truncated);

 private:
  Host& host_;
  std::uint16_t port_;
  ReceiveCallback on_receive_;
  std::uint64_t datagrams_received_ = 0;
};

}  // namespace liberate::stack
