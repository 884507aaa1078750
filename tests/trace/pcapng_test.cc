// pcapng writer: the capture format must round-trip byte-exactly (headers,
// timestamps, per-packet comments) through an independent reader, and a
// tap's capture must export intact.
#include "trace/pcapng.h"

#include <gtest/gtest.h>

#include "netsim/packet.h"
#include "stack/host.h"
#include "util/result.h"

namespace liberate::trace {
namespace {

// ---------------------------------------------------------------------------
// The round-trip oracle: a pcapng reader written from the spec, with its own
// block constants, so a wrong constant in the writer cannot hide behind the
// same constant in the reader. Nothing in the library reads captures.

constexpr std::uint32_t kShbType = 0x0a0d0d0a;
constexpr std::uint32_t kIdbType = 0x00000001;
constexpr std::uint32_t kEpbType = 0x00000006;
constexpr std::uint32_t kByteOrderMagicLe = 0x1a2b3c4d;
constexpr std::uint16_t kLinktypeRaw = 101;
constexpr std::uint16_t kOptEnd = 0;
constexpr std::uint16_t kOptCommentCode = 1;

std::uint16_t rd16(BytesView d, std::size_t off) {
  return static_cast<std::uint16_t>(d[off] | (d[off + 1] << 8));
}
std::uint32_t rd32(BytesView d, std::size_t off) {
  return static_cast<std::uint32_t>(d[off]) |
         (static_cast<std::uint32_t>(d[off + 1]) << 8) |
         (static_cast<std::uint32_t>(d[off + 2]) << 16) |
         (static_cast<std::uint32_t>(d[off + 3]) << 24);
}

/// Parse a little-endian single-section pcapng stream whose EPBs reference
/// interface 0; unknown block types are skipped, per the spec.
Result<std::vector<PcapngRecord>> read_pcapng(BytesView data) {
  if (data.size() < 12) return Error("pcapng: truncated");
  if (rd32(data, 0) != kShbType) {
    return Error("pcapng: missing section header block");
  }
  if (data.size() < 20 || rd32(data, 8) != kByteOrderMagicLe) {
    return Error("pcapng: bad byte-order magic (or big-endian section)");
  }

  std::vector<PcapngRecord> records;
  std::size_t off = 0;
  bool saw_interface = false;
  while (off + 12 <= data.size()) {
    const std::uint32_t type = rd32(data, off);
    const std::uint32_t total = rd32(data, off + 4);
    if (total < 12 || total % 4 != 0 || off + total > data.size()) {
      return Error("pcapng: bad block length");
    }
    if (rd32(data, off + total - 4) != total) {
      return Error("pcapng: trailing block length mismatch");
    }
    BytesView body = data.subspan(off + 8, total - 12);

    if (type == kIdbType) {
      if (body.size() < 8) return Error("pcapng: short interface block");
      if (rd16(body, 0) != kLinktypeRaw) {
        return Error("pcapng: unsupported link type (want LINKTYPE_RAW)");
      }
      saw_interface = true;
    } else if (type == kEpbType) {
      if (!saw_interface) return Error("pcapng: packet before interface");
      if (body.size() < 20) return Error("pcapng: short packet block");
      const std::size_t data_end = 20 + std::size_t{rd32(body, 12)};
      if (data_end > body.size()) return Error("pcapng: truncated packet");
      PcapngRecord r;
      r.at = (static_cast<std::uint64_t>(rd32(body, 4)) << 32) | rd32(body, 8);
      r.datagram.assign(body.begin() + 20,
                        body.begin() + static_cast<std::ptrdiff_t>(data_end));
      // Options follow the 32-bit padded packet data.
      std::size_t opt = data_end + ((4 - data_end % 4) % 4);
      while (opt + 4 <= body.size()) {
        const std::uint16_t code = rd16(body, opt);
        const std::uint16_t len = rd16(body, opt + 2);
        if (code == kOptEnd) break;
        if (opt + 4 + len > body.size()) {
          return Error("pcapng: truncated option");
        }
        if (code == kOptCommentCode) {
          r.comment.assign(
              reinterpret_cast<const char*>(body.data()) + opt + 4, len);
        }
        opt += 4 + std::size_t{len};
        opt += (4 - opt % 4) % 4;
      }
      records.push_back(std::move(r));
    }
    off += total;
  }
  if (off != data.size()) return Error("pcapng: trailing garbage");
  return records;
}

std::vector<PcapngRecord> sample_records() {
  std::vector<PcapngRecord> recs;
  recs.push_back({1000, Bytes{0x45, 0x00, 0x00, 0x14, 0xAA}, "first packet"});
  // Timestamp above 32 bits exercises the high/low split.
  recs.push_back({(std::uint64_t{7} << 32) | 42,
                  Bytes{0x45, 0x00, 0x00, 0x18, 0x01, 0x02, 0x03},
                  "split of pkt 77bb.. by tcp-segmentation"});
  recs.push_back({2000, Bytes{0x45, 0x01}, ""});  // no comment
  return recs;
}

TEST(Pcapng, RoundTripPreservesEverything) {
  std::vector<PcapngRecord> in = sample_records();
  Bytes wire = write_pcapng(in);

  auto out = read_pcapng(wire);
  ASSERT_TRUE(out.ok()) << out.error().message;
  ASSERT_EQ(out.value().size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out.value()[i].at, in[i].at) << "record " << i;
    EXPECT_EQ(out.value()[i].datagram, in[i].datagram) << "record " << i;
    EXPECT_EQ(out.value()[i].comment, in[i].comment) << "record " << i;
  }

  // Re-serializing the parse must reproduce the stream byte-exactly.
  EXPECT_EQ(write_pcapng(out.value()), wire);
}

TEST(Pcapng, EmptyCaptureIsJustHeaders) {
  Bytes wire = write_pcapng({});
  auto out = read_pcapng(wire);
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_TRUE(out.value().empty());
}

TEST(Pcapng, HeaderStructure) {
  Bytes wire = write_pcapng(sample_records());
  // Section Header Block type, then total length, then byte-order magic.
  ASSERT_GE(wire.size(), 12u);
  EXPECT_EQ(wire[0], 0x0a);  // 0x0a0d0d0a little-endian on the wire
  EXPECT_EQ(wire[1], 0x0d);
  EXPECT_EQ(wire[2], 0x0d);
  EXPECT_EQ(wire[3], 0x0a);
  EXPECT_EQ(wire[8], 0x4d);  // 0x1a2b3c4d little-endian
  EXPECT_EQ(wire[9], 0x3c);
  EXPECT_EQ(wire[10], 0x2b);
  EXPECT_EQ(wire[11], 0x1a);
  // Every block length is 32-bit aligned; total stream consumed exactly.
  std::size_t off = 0;
  int blocks = 0;
  while (off + 12 <= wire.size()) {
    std::uint32_t total = static_cast<std::uint32_t>(wire[off + 4]) |
                          (static_cast<std::uint32_t>(wire[off + 5]) << 8) |
                          (static_cast<std::uint32_t>(wire[off + 6]) << 16) |
                          (static_cast<std::uint32_t>(wire[off + 7]) << 24);
    EXPECT_EQ(total % 4, 0u);
    off += total;
    ++blocks;
  }
  EXPECT_EQ(off, wire.size());
  EXPECT_EQ(blocks, 2 + 3);  // SHB + IDB + one EPB per record
}

TEST(Pcapng, RejectsCorruptStreams) {
  EXPECT_FALSE(read_pcapng(Bytes{}).ok());
  EXPECT_FALSE(read_pcapng(Bytes{0x45, 0x00, 0x00}).ok());

  Bytes wire = write_pcapng(sample_records());
  Bytes bad_magic = wire;
  bad_magic[8] ^= 0xFF;
  EXPECT_FALSE(read_pcapng(bad_magic).ok());

  Bytes bad_len = wire;
  bad_len[4] ^= 0x01;  // SHB total length no longer matches trailer
  EXPECT_FALSE(read_pcapng(bad_len).ok());

  Bytes truncated(wire.begin(), wire.end() - 2);
  EXPECT_FALSE(read_pcapng(truncated).ok());
}

TEST(Pcapng, SkipsUnknownBlockTypes) {
  Bytes wire = write_pcapng(sample_records());
  // Append a minimal unknown block (type 0x0BAD, empty body): the reader
  // must skip it per the spec, not error.
  auto le32 = [](Bytes& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  le32(wire, 0x0BAD);
  le32(wire, 12);
  le32(wire, 12);
  auto out = read_pcapng(wire);
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_EQ(out.value().size(), sample_records().size());
}

TEST(Pcapng, TapExportCapturesLiveTraffic) {
  using namespace netsim;
  EventLoop loop;
  Network net{loop};
  auto& tap = net.emplace<TapElement>("wire");
  stack::Host client(net.client_port(), ip_addr("10.0.0.1"),
                     stack::OsProfile::linux_profile());
  stack::Host server(net.server_port(), ip_addr("10.9.9.9"),
                     stack::OsProfile::linux_profile());
  net.attach_client(&client);
  net.attach_server(&server);
  server.tcp_listen(80, [](stack::TcpConnection& c) {
    c.on_data([&c](BytesView) { c.send(std::string_view("pong")); });
  });
  auto& conn = client.tcp_connect(ip_addr("10.9.9.9"), 80);
  conn.on_established([&] { conn.send(std::string_view("ping")); });
  loop.run_until_idle();

  Bytes file = tap_to_pcapng(tap);
  auto records = read_pcapng(file);
  ASSERT_TRUE(records.ok()) << records.error().message;
  // Handshake + data + ACKs: at least 5 packets, all parseable IPv4, each
  // stamped with the virtual time the tap saw it.
  ASSERT_EQ(records.value().size(), tap.seen().size());
  EXPECT_GE(records.value().size(), 5u);
  bool saw_ping = false;
  for (std::size_t i = 0; i < records.value().size(); ++i) {
    const PcapngRecord& r = records.value()[i];
    EXPECT_EQ(r.at, tap.seen()[i].at) << i;
    auto p = parse_packet(r.datagram);
    ASSERT_TRUE(p.ok());
    if (to_string(p.value().app_payload()) == "ping") saw_ping = true;
  }
  EXPECT_TRUE(saw_ping);
}

}  // namespace
}  // namespace liberate::trace
