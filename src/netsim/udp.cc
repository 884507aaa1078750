#include "netsim/udp.h"

#include "netsim/checksum.h"
#include "netsim/ipv4.h"

namespace liberate::netsim {

Bytes serialize_udp(const UdpHeader& header, BytesView payload,
                    std::uint32_t src_ip, std::uint32_t dst_ip) {
  std::uint16_t length =
      header.length_override
          ? *header.length_override
          : static_cast<std::uint16_t>(8 + payload.size());

  ByteWriter w(8 + payload.size());
  w.u16(header.src_port);
  w.u16(header.dst_port);
  w.u16(length);
  w.u16(0);  // checksum placeholder
  w.raw(payload);

  std::uint16_t cks;
  if (header.checksum_override) {
    cks = *header.checksum_override;
  } else {
    cks = transport_checksum(src_ip, dst_ip,
                             static_cast<std::uint8_t>(IpProto::kUdp),
                             BytesView(w.bytes()));
    if (cks == 0) cks = 0xffff;  // RFC 768: transmitted as all-ones
  }
  w.patch_u16(6, cks);
  return std::move(w).take();
}

Result<UdpView> parse_udp(BytesView datagram) {
  if (datagram.size() < 8) {
    return Error("udp: datagram shorter than header");
  }
  UdpView v;
  v.src_port = load_u16(datagram, 0);
  v.dst_port = load_u16(datagram, 2);
  v.length = load_u16(datagram, 4);
  v.checksum = load_u16(datagram, 6);
  v.payload = datagram.subspan(8);
  if (v.length != datagram.size()) {
    v.bad_length = true;
    v.length_short = v.length < datagram.size();
    v.length_long = v.length > datagram.size();
  }
  return v;
}

bool udp_checksum_ok(BytesView datagram, std::uint32_t src_ip,
                     std::uint32_t dst_ip) {
  if (datagram.size() < 8) return false;
  const std::uint16_t stored = load_u16(datagram, 6);
  if (stored == 0) return true;  // checksum not computed by sender
  std::uint32_t sum = 0;
  sum += (src_ip >> 16) & 0xffff;
  sum += src_ip & 0xffff;
  sum += (dst_ip >> 16) & 0xffff;
  sum += dst_ip & 0xffff;
  sum += static_cast<std::uint8_t>(IpProto::kUdp);
  sum += static_cast<std::uint32_t>(datagram.size());
  sum = checksum_accumulate(sum, datagram);
  return checksum_finish(sum) == 0;
}

}  // namespace liberate::netsim
