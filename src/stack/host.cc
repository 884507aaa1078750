#include "stack/host.h"

namespace liberate::stack {

using netsim::Anomaly;
using netsim::anomaly_bit;
using netsim::AnomalySet;
using netsim::FiveTuple;
using netsim::PacketView;
using netsim::TcpFlags;

Host::Host(netsim::NetworkPort& port, std::uint32_t address, OsProfile os)
    : port_(port), address_(address), os_(std::move(os)) {}

TcpConnection& Host::tcp_connect(std::uint32_t dst_ip, std::uint16_t dst_port,
                                 std::uint16_t src_port) {
  if (src_port == 0) src_port = next_ephemeral_port_++;
  FiveTuple tuple;
  tuple.src_ip = address_;
  tuple.dst_ip = dst_ip;
  tuple.src_port = src_port;
  tuple.dst_port = dst_port;
  tuple.protocol = static_cast<std::uint8_t>(netsim::IpProto::kTcp);
  auto conn = std::make_unique<TcpConnection>(*this, tuple, next_iss_,
                                              /*passive=*/false);
  next_iss_ += 64000;
  TcpConnection& ref = *conn;
  connections_[tuple] = std::move(conn);
  ref.start_connect();
  return ref;
}

void Host::tcp_listen(std::uint16_t port, AcceptCallback cb) {
  listeners_[port] = std::move(cb);
}

void Host::tcp_unlisten(std::uint16_t port) { listeners_.erase(port); }

UdpSocket& Host::udp_bind(std::uint16_t port) {
  auto& slot = udp_sockets_[port];
  if (!slot) slot = std::make_unique<UdpSocket>(*this, port);
  return *slot;
}

void Host::receive(Bytes datagram) {
  // Raw tap before anything else: "reached the server" means reached the
  // wire at the server's NIC, regardless of kernel validation.
  raw_received_.push_back(raw_arena_.copy(BytesView(datagram)));

  auto parsed = netsim::parse_packet(datagram);
  if (!parsed.ok()) {
    ++dropped_by_os_;
    return;
  }

  // Fragment? Reassemble first; validation applies to the whole datagram.
  if (parsed.value().ip.is_fragment()) {
    auto whole = reassembler_.push(datagram, loop().now());
    reassembler_.expire(loop().now());
    if (!whole) return;
    auto reparsed = netsim::parse_packet(*whole);
    if (!reparsed.ok()) {
      ++dropped_by_os_;
      return;
    }
    handle_validated(reparsed.value());
    return;
  }

  handle_validated(parsed.value());
}

void Host::handle_validated(const PacketView& pkt) {
  AnomalySet anomalies = netsim::anomalies_of(pkt);
  OsAction action = os_.decide(anomalies);
  switch (action) {
    case OsAction::kDrop:
      ++dropped_by_os_;
      return;
    case OsAction::kRespondRst:
      ++dropped_by_os_;
      respond_rst(pkt);
      return;
    case OsAction::kDeliverTruncated:
      handle_udp(pkt, /*truncated=*/true);
      return;
    case OsAction::kDeliver:
      break;
  }

  if (pkt.is_tcp()) {
    handle_tcp(pkt);
  } else if (pkt.is_udp()) {
    handle_udp(pkt, /*truncated=*/false);
  } else if (pkt.icmp) {
    if (on_icmp_) on_icmp_(pkt, *pkt.icmp);
  }
}

void Host::handle_tcp(const PacketView& pkt) {
  // Demux key: our (local, remote) view is the reverse of the packet's
  // (src, dst).
  FiveTuple key = pkt.five_tuple().reversed();
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    it->second->handle_segment(pkt);
    return;
  }

  // New connection? Only a SYN (without ACK) to a listening port.
  const netsim::TcpView& seg = *pkt.tcp;
  if (seg.syn() && !seg.ack_flag()) {
    auto lit = listeners_.find(seg.dst_port);
    if (lit != listeners_.end()) {
      auto conn = std::make_unique<TcpConnection>(*this, key, next_iss_,
                                                  /*passive=*/true);
      next_iss_ += 64000;
      TcpConnection& ref = *conn;
      connections_[key] = std::move(conn);
      // Let the application attach callbacks before any data arrives.
      lit->second(ref);
      ref.handle_segment(pkt);
      return;
    }
  }

  // No socket: answer RST (unless the incoming segment was itself a RST).
  if (!seg.rst()) respond_rst(pkt);
}

void Host::handle_udp(const PacketView& pkt, bool truncated) {
  if (!pkt.udp) return;
  auto it = udp_sockets_.find(pkt.udp->dst_port);
  if (it == udp_sockets_.end()) return;  // silently ignore (no ICMP needed)
  it->second->deliver(pkt, truncated);
}

void Host::respond_rst(const PacketView& pkt) {
  if (!pkt.tcp) return;
  if (pkt.tcp->rst()) return;
  ++rsts_sent_;
  netsim::TcpHeader h;
  h.src_port = pkt.tcp->dst_port;
  h.dst_port = pkt.tcp->src_port;
  h.flags = TcpFlags::kRst | TcpFlags::kAck;
  h.seq = pkt.tcp->ack_flag() ? pkt.tcp->ack : 0;
  h.ack = pkt.tcp->seq + static_cast<std::uint32_t>(pkt.tcp->payload.size()) +
          (pkt.tcp->syn() ? 1 : 0);
  netsim::Ipv4Header ip;
  ip.src = address_;
  ip.dst = pkt.ip.src;
  transmit(make_tcp_datagram(ip, h, {}));
}

}  // namespace liberate::stack
