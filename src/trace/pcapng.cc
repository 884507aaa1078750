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
std::uint16_t rd16(BytesView d, std::size_t off) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(d[off]) |
      (static_cast<std::uint16_t>(d[off + 1]) << 8));
}
std::uint32_t rd32(BytesView d, std::size_t off) {
  return static_cast<std::uint32_t>(d[off]) |
         (static_cast<std::uint32_t>(d[off + 1]) << 8) |
         (static_cast<std::uint32_t>(d[off + 2]) << 16) |
         (static_cast<std::uint32_t>(d[off + 3]) << 24);
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

Result<std::vector<PcapngRecord>> read_pcapng(BytesView data) {
  if (data.size() < 12) return Error("pcapng: truncated");
  if (rd32(data, 0) != kSectionHeaderBlock) {
    return Error("pcapng: missing section header block");
  }
  if (data.size() < 20 || rd32(data, 8) != kByteOrderMagic) {
    return Error("pcapng: bad byte-order magic (or big-endian section)");
  }

  std::vector<PcapngRecord> records;
  std::size_t off = 0;
  bool saw_interface = false;
  while (off + 12 <= data.size()) {
    std::uint32_t type = rd32(data, off);
    std::uint32_t total = rd32(data, off + 4);
    if (total < 12 || total % 4 != 0 || off + total > data.size()) {
      return Error("pcapng: bad block length");
    }
    if (rd32(data, off + total - 4) != total) {
      return Error("pcapng: trailing block length mismatch");
    }
    BytesView body = data.subspan(off + 8, total - 12);

    if (type == kInterfaceBlock) {
      if (body.size() < 8) return Error("pcapng: short interface block");
      if (rd16(body, 0) != kLinkTypeRaw) {
        return Error("pcapng: unsupported link type (want LINKTYPE_RAW)");
      }
      saw_interface = true;
    } else if (type == kEnhancedPacketBlock) {
      if (!saw_interface) return Error("pcapng: packet before interface");
      if (body.size() < 20) return Error("pcapng: short packet block");
      std::uint32_t captured = rd32(body, 12);
      std::size_t data_end = 20 + captured;
      if (data_end > body.size()) return Error("pcapng: truncated packet");
      PcapngRecord r;
      r.at = (static_cast<std::uint64_t>(rd32(body, 4)) << 32) | rd32(body, 8);
      r.datagram.assign(
          body.begin() + 20,
          body.begin() + static_cast<std::ptrdiff_t>(data_end));
      // Options follow the 32-bit padded packet data.
      std::size_t opt = data_end + ((4 - data_end % 4) % 4);
      while (opt + 4 <= body.size()) {
        std::uint16_t code = rd16(body, opt);
        std::uint16_t len = rd16(body, opt + 2);
        if (code == kOptEndOfOpt) break;
        if (opt + 4 + len > body.size()) {
          return Error("pcapng: truncated option");
        }
        if (code == kOptComment) {
          r.comment.assign(
              reinterpret_cast<const char*>(body.data()) + opt + 4, len);
        }
        opt += 4 + static_cast<std::size_t>(len);
        opt += (4 - opt % 4) % 4;
      }
      records.push_back(std::move(r));
    }
    // Unknown block types (name resolution, statistics, ...) are skipped.
    off += total;
  }
  if (off != data.size()) return Error("pcapng: trailing garbage");
  return records;
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
