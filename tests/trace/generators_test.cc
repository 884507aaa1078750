#include "trace/generators.h"

#include <gtest/gtest.h>

#include "dpi/http_parser.h"
#include "dpi/stun_parser.h"
#include "fuzz/tls_parser.h"

namespace liberate::trace {
namespace {

TEST(Generators, HttpTraceParsesAsHttp) {
  auto t = amazon_video_trace(64 * 1024);
  ASSERT_GE(t.messages.size(), 2u);
  EXPECT_EQ(t.messages[0].sender, Sender::kClient);
  auto req = dpi::parse_http_request(BytesView(t.messages[0].payload));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->host().value(), "d25xi40x97liuc.cloudfront.net");

  auto resp = dpi::parse_http_response(BytesView(t.messages[1].payload));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->content_type().value(), "video/mp4");
}

TEST(Generators, HttpBodySizeHonored) {
  std::size_t want = 100 * 1024;
  auto t = amazon_video_trace(want);
  std::size_t body = 0;
  for (std::size_t i = 2; i < t.messages.size(); ++i) {
    body += t.messages[i].payload.size();
  }
  EXPECT_EQ(body, want);
}

TEST(Generators, TlsTraceCarriesSni) {
  auto t = youtube_tls_trace(32 * 1024);
  ASSERT_GE(t.messages.size(), 2u);
  EXPECT_EQ(t.server_port, 443);
  auto sni = dpi::extract_sni(BytesView(t.messages[0].payload));
  ASSERT_TRUE(sni.has_value());
  EXPECT_NE(sni->find(".googlevideo.com"), std::string::npos);
}

TEST(Generators, SkypeFirstPacketCarriesServiceQualityAttr) {
  auto t = make_skype_trace(SkypeTraceOptions{});
  EXPECT_EQ(t.transport, Transport::kUdp);
  ASSERT_GE(t.messages.size(), 3u);
  EXPECT_EQ(t.messages[0].sender, Sender::kClient);
  auto stun = dpi::parse_stun(BytesView(t.messages[0].payload));
  ASSERT_TRUE(stun.has_value());
  EXPECT_TRUE(stun->has_attribute(dpi::kStunAttrMsServiceQuality));
  // Later voice packets are NOT STUN.
  EXPECT_FALSE(dpi::parse_stun(BytesView(t.messages[2].payload)).has_value());
}

TEST(Generators, BlockedSiteTracesCarryKeywords) {
  auto econ = economist_trace();
  std::string req = to_string(BytesView(econ.messages[0].payload));
  EXPECT_EQ(req.rfind("GET ", 0), 0u);
  EXPECT_NE(req.find("economist.com"), std::string::npos);

  auto fb = facebook_trace();
  std::string req2 = to_string(BytesView(fb.messages[0].payload));
  EXPECT_NE(req2.find("facebook.com"), std::string::npos);
}

TEST(Generators, PlainTraceMatchesNoKnownKeyword) {
  auto t = plain_web_trace();
  std::string req = to_string(BytesView(t.messages[0].payload));
  for (const char* kw : {"economist", "facebook", "primevideo", "spotify",
                         "googlevideo", "cloudfront", "twitter"}) {
    EXPECT_EQ(req.find(kw), std::string::npos) << kw;
  }
}

TEST(Generators, GenericUdpNotStun) {
  auto t = make_generic_udp_trace();
  for (const auto& m : t.messages) {
    EXPECT_FALSE(dpi::parse_stun(BytesView(m.payload)).has_value());
  }
}

}  // namespace
}  // namespace liberate::trace
