#include <gtest/gtest.h>

#include "dpi/http_parser.h"
#include "dpi/stun_parser.h"
#include "fuzz/tls_parser.h"
#include "util/rng.h"

namespace liberate::dpi {
namespace {

TEST(HttpParser, ParsesRequestLineAndHeaders) {
  std::string raw =
      "GET /video/1.mp4 HTTP/1.1\r\n"
      "Host: www.primevideo.com\r\n"
      "User-Agent: AmazonVideo/5.0\r\n"
      "\r\n";
  auto req = parse_http_request(BytesView(to_bytes(raw)));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/video/1.mp4");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->host().value(), "www.primevideo.com");
  EXPECT_EQ(req->header("user-agent").value(), "AmazonVideo/5.0");
  EXPECT_FALSE(req->header("Cookie").has_value());
}

TEST(HttpParser, RejectsNonHttp) {
  EXPECT_FALSE(parse_http_request(BytesView(to_bytes("NOPE x y\r\n\r\n")))
                   .has_value());
  Rng rng(1);
  Bytes junk = rng.bytes(64);
  EXPECT_FALSE(parse_http_request(junk).has_value());
}

TEST(HttpParser, ParsesResponseWithContentType) {
  std::string raw =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: video/mp4\r\n"
      "Content-Length: 1000\r\n"
      "\r\n";
  auto resp = parse_http_response(BytesView(to_bytes(raw)));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->reason, "OK");
  EXPECT_EQ(resp->content_type().value(), "video/mp4");
}

TEST(HttpParser, Parses403) {
  auto resp = parse_http_response(
      BytesView(to_bytes("HTTP/1.1 403 Forbidden\r\n\r\n")));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 403);
  EXPECT_EQ(resp->reason, "Forbidden");
}

TEST(HttpParser, LooksLikeHttp) {
  EXPECT_TRUE(looks_like_http_request(BytesView(to_bytes("GET / HTTP/1.1"))));
  EXPECT_TRUE(looks_like_http_request(BytesView(to_bytes("POST /x HTTP/1.1"))));
  EXPECT_FALSE(looks_like_http_request(BytesView(to_bytes("XGET /"))));
  EXPECT_FALSE(looks_like_http_request(BytesView(to_bytes("GE"))));
}

// --- TLS -------------------------------------------------------------------

Bytes build_client_hello(const std::string& sni) {
  // Build a ClientHello with an SNI extension, the same way tls_gen does —
  // but constructed by hand here so the parser test is independent.
  ByteWriter ext;
  ext.u16(0);                                        // extension: server_name
  ext.u16(static_cast<std::uint16_t>(sni.size() + 5));
  ext.u16(static_cast<std::uint16_t>(sni.size() + 3));  // list length
  ext.u8(0);                                            // host_name
  ext.u16(static_cast<std::uint16_t>(sni.size()));
  ext.raw(sni);

  ByteWriter body;
  body.u16(0x0303);  // client_version TLS1.2
  body.fill(0xaa, 32);
  body.u8(0);        // session id
  body.u16(2);       // cipher suites length
  body.u16(0x1301);
  body.u8(1);        // compression methods
  body.u8(0);
  body.u16(static_cast<std::uint16_t>(ext.size()));
  body.raw(ext.bytes());

  ByteWriter hs;
  hs.u8(1);  // ClientHello
  hs.u24(static_cast<std::uint32_t>(body.size()));
  hs.raw(body.bytes());

  ByteWriter record;
  record.u8(22);  // handshake
  record.u16(0x0301);
  record.u16(static_cast<std::uint16_t>(hs.size()));
  record.raw(hs.bytes());
  return std::move(record).take();
}

TEST(TlsParser, ExtractsSni) {
  Bytes hello = build_client_hello("r3---sn.googlevideo.com");
  EXPECT_TRUE(looks_like_tls_client_hello(hello));
  auto sni = extract_sni(hello);
  ASSERT_TRUE(sni.has_value());
  EXPECT_EQ(*sni, "r3---sn.googlevideo.com");
}

TEST(TlsParser, RejectsGarbageAndBlindedBytes) {
  Bytes hello = build_client_hello("example.com");
  // Bit-inverted hello (the characterization "control"): must not parse.
  Bytes inverted = hello;
  for (auto& b : inverted) b = static_cast<std::uint8_t>(~b);
  EXPECT_FALSE(extract_sni(inverted).has_value());
  EXPECT_FALSE(extract_sni(BytesView(to_bytes("GET / HTTP/1.1"))).has_value());
  Bytes tiny{22, 3};
  EXPECT_FALSE(extract_sni(tiny).has_value());
}

// --- STUN ------------------------------------------------------------------

TEST(StunParser, RoundTripWithAttributes) {
  StunMessage msg;
  msg.message_type = 0x0001;  // Binding Request
  msg.transaction_id = Bytes(12, 0x42);
  msg.attributes.push_back(
      StunAttribute{kStunAttrMsServiceQuality, {0x00, 0x01, 0x00, 0x02}});
  msg.attributes.push_back(StunAttribute{0x0006, to_bytes("user")});

  Bytes wire = serialize_stun(msg);
  auto parsed = parse_stun(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->message_type, 0x0001);
  EXPECT_TRUE(parsed->has_attribute(kStunAttrMsServiceQuality));
  EXPECT_TRUE(parsed->has_attribute(0x0006));
  EXPECT_FALSE(parsed->has_attribute(0x9999));
}

TEST(StunParser, AttributePaddingHandled) {
  StunMessage msg;
  msg.message_type = 0x0001;
  msg.transaction_id = Bytes(12, 1);
  msg.attributes.push_back(StunAttribute{0x0006, to_bytes("abc")});  // pad 1
  msg.attributes.push_back(StunAttribute{0x8055, to_bytes("xy")});   // pad 2
  auto parsed = parse_stun(serialize_stun(msg));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->attributes.size(), 2u);
  EXPECT_EQ(to_string(BytesView(parsed->attributes[0].value)), "abc");
  EXPECT_TRUE(parsed->has_attribute(0x8055));
}

TEST(StunParser, RejectsWrongMagicAndBlinded) {
  StunMessage msg;
  msg.message_type = 0x0001;
  msg.transaction_id = Bytes(12, 1);
  Bytes wire = serialize_stun(msg);
  Bytes inverted = wire;
  for (auto& b : inverted) b = static_cast<std::uint8_t>(~b);
  EXPECT_FALSE(parse_stun(inverted).has_value());
  wire[4] ^= 0xff;  // corrupt the magic cookie
  EXPECT_FALSE(parse_stun(wire).has_value());
  Bytes tiny{0, 1};
  EXPECT_FALSE(parse_stun(tiny).has_value());
}

}  // namespace
}  // namespace liberate::dpi
