#include "netsim/tcp.h"

#include "netsim/checksum.h"
#include "netsim/ipv4.h"

namespace liberate::netsim {

namespace {

Bytes serialize_tcp_options(const std::vector<TcpOption>& options) {
  ByteWriter w;
  for (const auto& opt : options) {
    w.u8(opt.kind);
    if (opt.kind == 0 || opt.kind == 1) continue;  // EOL / NOP
    w.u8(static_cast<std::uint8_t>(2 + opt.data.size()));
    w.raw(opt.data);
  }
  while (w.size() % 4 != 0) w.u8(0);
  return std::move(w).take();
}

}  // namespace

Bytes serialize_tcp(const TcpHeader& header, BytesView payload,
                    std::uint32_t src_ip, std::uint32_t dst_ip) {
  Bytes opts = serialize_tcp_options(header.options);
  std::size_t header_len = 20 + opts.size();
  std::uint8_t offset = header.data_offset_words != 0
                            ? header.data_offset_words
                            : static_cast<std::uint8_t>(header_len / 4);

  ByteWriter w(header_len + payload.size());
  w.u16(header.src_port);
  w.u16(header.dst_port);
  w.u32(header.seq);
  w.u32(header.ack);
  w.u8(static_cast<std::uint8_t>(offset << 4));
  w.u8(header.flags);
  w.u16(header.window);
  w.u16(0);  // checksum placeholder
  w.u16(header.urgent_ptr);
  w.raw(opts);
  w.raw(payload);

  std::uint16_t cks =
      header.checksum_override
          ? *header.checksum_override
          : transport_checksum(src_ip, dst_ip,
                               static_cast<std::uint8_t>(IpProto::kTcp),
                               BytesView(w.bytes()));
  w.patch_u16(16, cks);
  return std::move(w).take();
}

Result<TcpView> parse_tcp(BytesView segment) {
  if (segment.size() < 20) {
    return Error("tcp: segment shorter than fixed header");
  }
  TcpView v;
  // The fixed header is in range: plain loads, no Result per field.
  v.src_port = load_u16(segment, 0);
  v.dst_port = load_u16(segment, 2);
  v.seq = load_u32(segment, 4);
  v.ack = load_u32(segment, 8);
  v.data_offset_words = segment[12] >> 4;
  v.flags = segment[13];
  v.window = load_u16(segment, 14);
  v.checksum = load_u16(segment, 16);
  v.urgent_ptr = load_u16(segment, 18);

  std::size_t declared_header = static_cast<std::size_t>(v.data_offset_words) * 4;
  if (v.data_offset_words < 5 || declared_header > segment.size()) {
    v.bad_data_offset = true;
    v.header_length = 20;  // best effort
  } else {
    v.header_length = declared_header;
  }

  if (!v.bad_data_offset && v.header_length > 20) {
    BytesView area = segment.subspan(20, v.header_length - 20);
    std::size_t i = 0;
    while (i < area.size()) {
      std::uint8_t kind = area[i];
      if (kind == 0) break;
      if (kind == 1) {
        ++i;
        continue;
      }
      if (i + 1 >= area.size()) {
        v.bad_options = true;
        break;
      }
      std::uint8_t len = area[i + 1];
      if (len < 2 || i + len > area.size()) {
        v.bad_options = true;
        break;
      }
      TcpOption opt;
      opt.kind = kind;
      opt.data.assign(area.begin() + static_cast<std::ptrdiff_t>(i + 2),
                      area.begin() + static_cast<std::ptrdiff_t>(i + len));
      v.options.push_back(std::move(opt));
      i += len;
    }
  }

  v.payload = segment.subspan(v.header_length);
  return v;
}

bool tcp_checksum_ok(BytesView segment, std::uint32_t src_ip,
                     std::uint32_t dst_ip) {
  // Summing the segment with its checksum field in place yields zero iff the
  // stored checksum is correct.
  std::uint32_t sum = 0;
  sum += (src_ip >> 16) & 0xffff;
  sum += src_ip & 0xffff;
  sum += (dst_ip >> 16) & 0xffff;
  sum += dst_ip & 0xffff;
  sum += static_cast<std::uint8_t>(IpProto::kTcp);
  sum += static_cast<std::uint32_t>(segment.size());
  sum = checksum_accumulate(sum, segment);
  return checksum_finish(sum) == 0;
}

bool is_invalid_flag_combo(std::uint8_t flags) {
  const bool syn = flags & TcpFlags::kSyn;
  const bool fin = flags & TcpFlags::kFin;
  const bool rst = flags & TcpFlags::kRst;
  if (syn && fin) return true;
  if (syn && rst) return true;
  if (fin && rst) return true;
  if (flags == 0) return true;  // "null" segment
  return false;
}

}  // namespace liberate::netsim
