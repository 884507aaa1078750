#include "stack/udp_endpoint.h"

#include "stack/host.h"

namespace liberate::stack {

void UdpSocket::send_to(std::uint32_t dst_ip, std::uint16_t dst_port,
                        BytesView payload) {
  netsim::UdpHeader h;
  h.src_port = port_;
  h.dst_port = dst_port;
  netsim::Ipv4Header ip;
  ip.src = host_.address();
  ip.dst = dst_ip;
  host_.transmit(make_udp_datagram(ip, h, payload));
}

void UdpSocket::deliver(const netsim::PacketView& pkt, bool truncated) {
  if (!pkt.udp) return;
  Incoming in;
  in.src_ip = pkt.ip.src;
  in.src_port = pkt.udp->src_port;
  BytesView payload =
      truncated ? pkt.udp->declared_payload() : pkt.udp->payload;
  in.payload.assign(payload.begin(), payload.end());
  in.truncated = truncated;
  ++datagrams_received_;
  if (on_receive_) on_receive_(in);
}

}  // namespace liberate::stack
