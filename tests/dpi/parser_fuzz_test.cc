// Fuzz-style property sweeps: every parser in the DPI path must consume
// arbitrary bytes without crashing, and almost always reject them — a
// middlebox (and lib·erate's own inspection of hostile traffic) lives on
// garbage input.
#include <gtest/gtest.h>

#include "dpi/http_parser.h"
#include "dpi/stun_parser.h"
#include "fuzz/tls_parser.h"
#include "netsim/packet.h"
#include "netsim/validation.h"
#include "util/rng.h"

namespace liberate::dpi {
namespace {

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashAnyParser) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
  for (int i = 0; i < 50; ++i) {
    Bytes junk = rng.bytes(rng.below(300));
    (void)parse_http_request(junk);
    (void)parse_http_response(junk);
    (void)extract_sni(junk);
    (void)parse_stun(junk);
    (void)netsim::parse_ipv4(junk);
    (void)netsim::parse_tcp(junk);
    (void)netsim::parse_udp(junk);
    (void)netsim::parse_icmp(junk);
    auto pkt = netsim::parse_packet(junk);
    if (pkt.ok()) {
      (void)netsim::anomalies_of(pkt.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 8));

// Mutated REAL packets: flip random bytes of a valid datagram and push the
// result through the whole inspection path. Anomalies may appear; crashes
// and false "clean" verdicts on a corrupted header checksum must not.
class MutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MutationFuzz, BitFlippedDatagramsSurviveInspection) {
  using namespace netsim;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  Ipv4Header ip;
  ip.src = ip_addr("10.0.0.1");
  ip.dst = ip_addr("10.9.9.9");
  TcpHeader tcp;
  tcp.src_port = 1234;
  tcp.dst_port = 80;
  tcp.flags = TcpFlags::kAck | TcpFlags::kPsh;
  Bytes base = make_tcp_datagram(
      ip, tcp, to_bytes("GET / HTTP/1.1\r\nHost: fuzz.example\r\n\r\n"));

  for (int i = 0; i < 100; ++i) {
    Bytes mutated = base;
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    auto pkt = parse_packet(mutated);
    if (!pkt.ok()) continue;
    AnomalySet anomalies = anomalies_of(pkt.value());
    // A SINGLE bit flip is always caught (the IP header checksum covers the
    // header, the TCP checksum the rest). Multiple flips can legitimately
    // cancel in the one's-complement sum — the classic weakness of the
    // internet checksum — so they only assert no-crash above.
    if (flips == 1 && mutated != base) {
      EXPECT_NE(anomalies, 0u) << "undetected single-bit flip, trial " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range(0, 6));

// Truncation sweep: every prefix of a valid datagram parses without UB.
TEST(TruncationFuzz, EveryPrefixHandled) {
  using namespace netsim;
  Ipv4Header ip;
  ip.src = 1;
  ip.dst = 2;
  ip.options.push_back(Ipv4Option::stream_id(7));
  TcpHeader tcp;
  tcp.flags = TcpFlags::kSyn;
  tcp.options.push_back(TcpOption::mss(1460));
  Bytes dgram = make_tcp_datagram(ip, tcp, to_bytes("prefix-sweep-payload"));
  for (std::size_t n = 0; n <= dgram.size(); ++n) {
    BytesView prefix(dgram.data(), n);
    auto pkt = parse_packet(prefix);
    if (pkt.ok()) {
      (void)anomalies_of(pkt.value());
    }
  }
}

}  // namespace
}  // namespace liberate::dpi
