#include "trace/pcapng.h"

namespace liberate::trace {

namespace {

// pcapng blocks are written in the writer's native byte order, announced by
// the byte-order magic; we always emit little-endian.
void le16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void le32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

constexpr std::uint32_t kSectionHeaderBlock = 0x0a0d0d0a;
constexpr std::uint32_t kInterfaceBlock = 0x00000001;
constexpr std::uint32_t kEnhancedPacketBlock = 0x00000006;
constexpr std::uint32_t kByteOrderMagic = 0x1a2b3c4d;
constexpr std::uint32_t kLinkTypeRaw = 101;
constexpr std::uint16_t kOptEndOfOpt = 0;
constexpr std::uint16_t kOptComment = 1;
constexpr std::uint16_t kOptIfTsResol = 9;

void pad32(Bytes& out) {
  while (out.size() % 4 != 0) out.push_back(0);
}

/// Append one option (code, length, value padded to 32 bits).
void option(Bytes& out, std::uint16_t code, BytesView value) {
  le16(out, code);
  le16(out, static_cast<std::uint16_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
  pad32(out);
}

/// Append a finished block: type + total length + body + trailing length.
void block(Bytes& out, std::uint32_t type, const Bytes& body) {
  // Total length covers type (4) + length (4) + body + trailing length (4).
  std::uint32_t total = static_cast<std::uint32_t>(12 + body.size());
  le32(out, type);
  le32(out, total);
  out.insert(out.end(), body.begin(), body.end());
  le32(out, total);
}

}  // namespace

Bytes write_pcapng(const std::vector<PcapngRecord>& records) {
  Bytes out;

  // Section Header Block: byte-order magic, version 1.0, unknown section
  // length (-1 per the spec's recommendation for streamed writers).
  {
    Bytes body;
    le32(body, kByteOrderMagic);
    le16(body, 1);  // major
    le16(body, 0);  // minor
    le32(body, 0xffffffff);  // section length (low half of -1)
    le32(body, 0xffffffff);  // section length (high half)
    block(out, kSectionHeaderBlock, body);
  }

  // Interface Description Block: LINKTYPE_RAW, unlimited snaplen, and
  // if_tsresol=6 (microseconds — also the default, stated explicitly).
  {
    Bytes body;
    le16(body, static_cast<std::uint16_t>(kLinkTypeRaw));
    le16(body, 0);  // reserved
    le32(body, 0);  // snaplen: no limit
    const std::uint8_t tsresol = 6;
    option(body, kOptIfTsResol, BytesView(&tsresol, 1));
    option(body, kOptEndOfOpt, {});
    block(out, kInterfaceBlock, body);
  }

  for (const PcapngRecord& r : records) {
    Bytes body;
    le32(body, 0);  // interface id
    le32(body, static_cast<std::uint32_t>(r.at >> 32));  // timestamp high
    le32(body, static_cast<std::uint32_t>(r.at));        // timestamp low
    le32(body, static_cast<std::uint32_t>(r.datagram.size()));  // captured
    le32(body, static_cast<std::uint32_t>(r.datagram.size()));  // original
    body.insert(body.end(), r.datagram.begin(), r.datagram.end());
    pad32(body);
    if (!r.comment.empty()) {
      option(body, kOptComment,
             BytesView(reinterpret_cast<const std::uint8_t*>(r.comment.data()),
                       r.comment.size()));
      option(body, kOptEndOfOpt, {});
    }
    block(out, kEnhancedPacketBlock, body);
  }
  return out;
}

Bytes tap_to_pcapng(const netsim::TapElement& tap) {
  std::vector<PcapngRecord> records;
  records.reserve(tap.seen().size());
  for (const auto& seen : tap.seen()) {
    records.push_back(PcapngRecord{
        seen.at, Bytes(seen.datagram.begin(), seen.datagram.end()), ""});
  }
  return write_pcapng(records);
}

}  // namespace liberate::trace
