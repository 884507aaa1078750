#include "netsim/ipv4.h"

#include <cassert>

#include "netsim/checksum.h"
#include "util/strings.h"

namespace liberate::netsim {

namespace {

constexpr std::uint8_t kOptEol = 0;
constexpr std::uint8_t kOptNop = 1;
constexpr std::uint8_t kOptStreamId = 136;  // deprecated (RFC 6814)

Bytes serialize_options(const std::vector<Ipv4Option>& options) {
  ByteWriter w;
  for (const auto& opt : options) {
    w.u8(opt.kind);
    if (opt.kind == kOptEol || opt.kind == kOptNop) continue;
    std::uint8_t len = opt.declared_length != 0
                           ? opt.declared_length
                           : static_cast<std::uint8_t>(2 + opt.data.size());
    w.u8(len);
    w.raw(opt.data);
  }
  // Pad to 32-bit boundary with EOL bytes.
  while (w.size() % 4 != 0) w.u8(kOptEol);
  return std::move(w).take();
}

}  // namespace

Ipv4Option Ipv4Option::stream_id(std::uint16_t id) {
  Ipv4Option opt;
  opt.kind = kOptStreamId;
  opt.data = {static_cast<std::uint8_t>(id >> 8),
              static_cast<std::uint8_t>(id)};
  return opt;
}

Ipv4Option Ipv4Option::invalid_length() {
  Ipv4Option opt;
  opt.kind = 0x86;  // copied-class-0 unknown option
  opt.data = {0x00, 0x00};
  opt.declared_length = 0x40;  // claims 64 bytes; header can't hold that
  return opt;
}

std::uint32_t ip_addr(const std::string& dotted) {
  std::uint32_t out = 0;
  std::uint32_t octet = 0;
  int count = 0;
  for (char c : dotted) {
    if (c == '.') {
      out = (out << 8) | (octet & 0xff);
      octet = 0;
      ++count;
    } else if (c >= '0' && c <= '9') {
      octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
    }
  }
  out = (out << 8) | (octet & 0xff);
  assert(count == 3);
  return out;
}

std::string ip_to_string(std::uint32_t addr) {
  return format("%u.%u.%u.%u", (addr >> 24) & 0xff, (addr >> 16) & 0xff,
                (addr >> 8) & 0xff, addr & 0xff);
}

Bytes serialize_ipv4(const Ipv4Header& header, BytesView payload) {
  Bytes opts = serialize_options(header.options);
  std::size_t header_len = 20 + opts.size();
  std::uint8_t ihl = header.ihl_words != 0
                         ? header.ihl_words
                         : static_cast<std::uint8_t>(header_len / 4);
  std::uint16_t total_len =
      header.total_length_override
          ? *header.total_length_override
          : static_cast<std::uint16_t>(header_len + payload.size());

  ByteWriter w(header_len + payload.size());
  w.u8(static_cast<std::uint8_t>((header.version << 4) | (ihl & 0xf)));
  w.u8(header.dscp_ecn);
  w.u16(total_len);
  w.u16(header.identification);
  std::uint16_t frag = header.fragment_offset_words & 0x1fff;
  if (header.flag_reserved) frag |= 0x8000;
  if (header.flag_dont_fragment) frag |= 0x4000;
  if (header.flag_more_fragments) frag |= 0x2000;
  w.u16(frag);
  w.u8(header.ttl);
  w.u8(header.protocol);
  w.u16(0);  // checksum placeholder
  w.u32(header.src);
  w.u32(header.dst);
  w.raw(opts);

  std::uint16_t cks =
      header.checksum_override
          ? *header.checksum_override
          : internet_checksum(BytesView(w.bytes().data(), header_len));
  w.patch_u16(10, cks);
  w.raw(payload);
  return std::move(w).take();
}

Result<Ipv4View> parse_ipv4(BytesView datagram) {
  if (datagram.size() < 20) {
    return Error("ipv4: datagram shorter than fixed header");
  }
  Ipv4View v;
  v.datagram_size = datagram.size();
  // The fixed header is in range: plain loads, no Result per field.
  v.version = datagram[0] >> 4;
  v.ihl_words = datagram[0] & 0xf;
  v.dscp_ecn = datagram[1];
  v.total_length = load_u16(datagram, 2);
  v.identification = load_u16(datagram, 4);
  const std::uint16_t frag = load_u16(datagram, 6);
  v.flag_reserved = (frag & 0x8000) != 0;
  v.flag_dont_fragment = (frag & 0x4000) != 0;
  v.flag_more_fragments = (frag & 0x2000) != 0;
  v.fragment_offset_words = frag & 0x1fff;
  v.ttl = datagram[8];
  v.protocol = datagram[9];
  v.checksum = load_u16(datagram, 10);
  v.src = load_u32(datagram, 12);
  v.dst = load_u32(datagram, 16);

  v.bad_version = v.version != 4;

  std::size_t declared_header = static_cast<std::size_t>(v.ihl_words) * 4;
  if (v.ihl_words < 5 || declared_header > datagram.size()) {
    v.bad_ihl = true;
    v.header_length = 20;  // best effort: treat as option-less
  } else {
    v.header_length = declared_header;
  }

  // Parse options leniently from the declared option area.
  if (!v.bad_ihl && v.header_length > 20) {
    BytesView area = datagram.subspan(20, v.header_length - 20);
    std::size_t i = 0;
    while (i < area.size()) {
      std::uint8_t kind = area[i];
      if (kind == kOptEol) break;
      if (kind == kOptNop) {
        v.options.push_back(Ipv4Option::nop());
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
        Ipv4Option opt;
        opt.kind = kind;
        opt.declared_length = len;
        v.options.push_back(opt);
        break;
      }
      Ipv4Option opt;
      opt.kind = kind;
      opt.data.assign(area.begin() + static_cast<std::ptrdiff_t>(i + 2),
                      area.begin() + static_cast<std::ptrdiff_t>(i + len));
      v.options.push_back(std::move(opt));
      if (kind == kOptStreamId) v.has_deprecated_option = true;
      i += len;
    }
  }

  v.payload = datagram.subspan(v.header_length);
  if (v.total_length != datagram.size()) {
    v.bad_total_length = true;
    v.total_length_short = v.total_length < datagram.size();
    v.total_length_long = v.total_length > datagram.size();
  }

  // Verify header checksum over the effective header bytes.
  std::uint16_t computed =
      internet_checksum(datagram.subspan(0, v.header_length));
  // A correct header sums (including its checksum field) to zero, i.e. the
  // recomputation with the stored checksum in place yields 0x0000.
  v.bad_checksum = computed != 0;

  return v;
}

void refresh_ipv4_checksum(Bytes& datagram) {
  auto parsed = parse_ipv4(datagram);
  if (!parsed.ok()) return;
  std::size_t hlen = parsed.value().header_length;
  datagram[10] = 0;
  datagram[11] = 0;
  std::uint16_t cks = internet_checksum(BytesView(datagram.data(), hlen));
  datagram[10] = static_cast<std::uint8_t>(cks >> 8);
  datagram[11] = static_cast<std::uint8_t>(cks);
}

void set_ttl_in_place(Bytes& datagram, std::uint8_t new_ttl) {
  if (datagram.size() < 20) return;
  // Incremental checksum update per RFC 1624: HC' = ~(~HC + ~m + m').
  std::uint16_t old_word = load_u16(datagram, 8);
  datagram[8] = new_ttl;
  std::uint16_t new_word = load_u16(datagram, 8);
  std::uint16_t hc = load_u16(datagram, 10);
  std::uint32_t sum = static_cast<std::uint16_t>(~hc);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  std::uint16_t hc2 = static_cast<std::uint16_t>(~sum & 0xffff);
  datagram[10] = static_cast<std::uint8_t>(hc2 >> 8);
  datagram[11] = static_cast<std::uint8_t>(hc2);
}

}  // namespace liberate::netsim
