#include "stack/ip_reassembly.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "netsim/packet.h"
#include "obs/provenance/recorder.h"
#include "util/rng.h"

namespace liberate::stack {
namespace {

using namespace netsim;

Bytes tcp_datagram(std::size_t payload_size, std::uint64_t seed = 1) {
  Rng rng(seed);
  Ipv4Header ip;
  ip.src = ip_addr("10.0.0.1");
  ip.dst = ip_addr("10.0.0.2");
  ip.identification = static_cast<std::uint16_t>(seed);
  TcpHeader tcp;
  tcp.src_port = 1000;
  tcp.dst_port = 80;
  tcp.flags = TcpFlags::kAck;
  return make_tcp_datagram(ip, tcp, rng.bytes(payload_size));
}

TEST(IpReassembly, NonFragmentPassesThrough) {
  IpReassembler r;
  Bytes d = tcp_datagram(100);
  auto out = r.push(d, 0);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, d);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(IpReassembly, InOrderFragmentsReassemble) {
  IpReassembler r;
  Bytes d = tcp_datagram(900);
  auto frags = fragment_datagram(d, 3);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_FALSE(r.push(frags[0], 0).has_value());
  EXPECT_FALSE(r.push(frags[1], 0).has_value());
  auto out = r.push(frags[2], 0);
  ASSERT_TRUE(out.has_value());

  // Reassembled transport payload identical to the original's.
  auto orig = parse_ipv4(d).value();
  auto got = parse_ipv4(*out).value();
  EXPECT_EQ(Bytes(got.payload.begin(), got.payload.end()),
            Bytes(orig.payload.begin(), orig.payload.end()));
  EXPECT_FALSE(got.is_fragment());
  EXPECT_FALSE(got.any_anomaly());
}

TEST(IpReassembly, OutOfOrderFragmentsReassemble) {
  IpReassembler r;
  Bytes d = tcp_datagram(1200, 7);
  auto frags = fragment_datagram(d, 4);
  ASSERT_EQ(frags.size(), 4u);
  std::swap(frags[0], frags[3]);
  std::swap(frags[1], frags[2]);
  std::optional<Bytes> out;
  for (const auto& f : frags) {
    out = r.push(f, 0);
  }
  ASSERT_TRUE(out.has_value());
  auto orig = parse_ipv4(d).value();
  auto got = parse_ipv4(*out).value();
  EXPECT_EQ(Bytes(got.payload.begin(), got.payload.end()),
            Bytes(orig.payload.begin(), orig.payload.end()));
}

TEST(IpReassembly, DistinctFlowsDoNotMix) {
  IpReassembler r;
  Bytes a = tcp_datagram(500, 11);
  Bytes b = tcp_datagram(500, 22);
  auto fa = fragment_datagram(a, 2);
  auto fb = fragment_datagram(b, 2);
  EXPECT_FALSE(r.push(fa[0], 0).has_value());
  EXPECT_FALSE(r.push(fb[0], 0).has_value());
  EXPECT_EQ(r.pending(), 2u);
  auto ra = r.push(fa[1], 0);
  ASSERT_TRUE(ra.has_value());
  auto oa = parse_ipv4(a).value();
  auto ga = parse_ipv4(*ra).value();
  EXPECT_EQ(Bytes(ga.payload.begin(), ga.payload.end()),
            Bytes(oa.payload.begin(), oa.payload.end()));
  EXPECT_EQ(r.pending(), 1u);
}

TEST(IpReassembly, MissingMiddleFragmentNeverCompletes) {
  IpReassembler r;
  Bytes d = tcp_datagram(900, 3);
  auto frags = fragment_datagram(d, 3);
  EXPECT_FALSE(r.push(frags[0], 0).has_value());
  EXPECT_FALSE(r.push(frags[2], 0).has_value());
  EXPECT_EQ(r.pending(), 1u);
}

TEST(IpReassembly, ExpiryDropsStaleBuffers) {
  IpReassembler r(seconds(30));
  Bytes d = tcp_datagram(900, 5);
  auto frags = fragment_datagram(d, 3);
  EXPECT_FALSE(r.push(frags[0], 0).has_value());
  r.expire(seconds(31));
  EXPECT_EQ(r.pending(), 0u);
  // Completing after expiry does not produce the datagram.
  EXPECT_FALSE(r.push(frags[1], seconds(31)).has_value());
  EXPECT_FALSE(r.push(frags[2], seconds(31)).has_value());
  // frags[1] and frags[2] alone can't cover offset 0.
  EXPECT_EQ(r.pending(), 1u);
}

// Property sweep: random fragment counts and delivery orders always
// reconstruct the original transport bytes.
class ReassemblyProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReassemblyProperty, RandomOrderAlwaysReassembles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  IpReassembler r;
  std::size_t payload = 200 + rng.below(1800);
  std::size_t pieces = 2 + rng.below(6);
  Bytes d = tcp_datagram(payload, static_cast<std::uint64_t>(GetParam()) + 100);
  auto frags = fragment_datagram(d, pieces);
  // Shuffle.
  for (std::size_t i = frags.size(); i > 1; --i) {
    std::swap(frags[i - 1], frags[rng.below(i)]);
  }
  std::optional<Bytes> out;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    out = r.push(frags[i], 0);
    if (i + 1 < frags.size()) EXPECT_FALSE(out.has_value());
  }
  ASSERT_TRUE(out.has_value());
  auto orig = parse_ipv4(d).value();
  auto got = parse_ipv4(*out).value();
  EXPECT_EQ(Bytes(got.payload.begin(), got.payload.end()),
            Bytes(orig.payload.begin(), orig.payload.end()));
}

INSTANTIATE_TEST_SUITE_P(Trials, ReassemblyProperty, ::testing::Range(0, 20));

// --- Robustness regressions (issue 4) --------------------------------------

// A hand-built TCP-protocol fragment: offset in bytes (8-aligned), explicit
// MF flag, arbitrary payload.
Bytes raw_fragment(std::size_t offset, BytesView payload, bool more_fragments,
                   std::uint16_t id = 0x42) {
  Ipv4Header ip;
  ip.src = ip_addr("10.0.0.1");
  ip.dst = ip_addr("10.0.0.2");
  ip.identification = id;
  ip.protocol = 6;
  ip.fragment_offset_words = static_cast<std::uint16_t>(offset / 8);
  ip.flag_more_fragments = more_fragments;
  return serialize_ipv4(ip, payload);
}

Bytes pattern(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

// Regression for the heap OOB write: pieces [0,100), a last fragment
// [48,60) declaring total_size = 60, and a stray piece at offset 80 — i.e.
// entirely beyond the declared end. The old copy loop computed
// `payload.size() - p.offset` for the stray piece, underflowed, and wrote
// past the 60-byte reassembly buffer (ASan caught it as a heap buffer
// overflow). Now the stray bytes are skipped and the datagram is exact.
TEST(IpReassemblyRobustness, StrayFragmentPastTotalSizeIsBounded) {
  IpReassembler r;
  EXPECT_FALSE(r.push(raw_fragment(0, pattern(100, 0x11), true), 0));
  EXPECT_FALSE(r.push(raw_fragment(80, pattern(8, 0xBB), true), 0));
  auto out = r.push(raw_fragment(48, pattern(12, 0xAA), false), 0);
  ASSERT_TRUE(out.has_value());
  auto got = parse_ipv4(*out).value();
  ASSERT_EQ(got.payload.size(), 60u);
  // [0,48) from the first piece; [48,60) from the later-arriving last piece.
  for (std::size_t i = 0; i < 48; ++i) EXPECT_EQ(got.payload[i], 0x11) << i;
  for (std::size_t i = 48; i < 60; ++i) EXPECT_EQ(got.payload[i], 0xAA) << i;
}

// Duplicate-offset overlap resolution must not depend on std::sort's
// unspecified ordering of equal keys: with stable_sort, the later arrival
// at the same offset deterministically wins the overlapping bytes.
TEST(IpReassemblyRobustness, DuplicateOffsetOverlapIsArrivalDeterministic) {
  for (int trial = 0; trial < 4; ++trial) {
    IpReassembler r;
    EXPECT_FALSE(r.push(raw_fragment(0, pattern(64, 0x11), true), 0));
    EXPECT_FALSE(r.push(raw_fragment(0, pattern(64, 0x22), true), 0));
    auto out = r.push(raw_fragment(64, pattern(8, 0x33), false), 0);
    ASSERT_TRUE(out.has_value());
    auto got = parse_ipv4(*out).value();
    ASSERT_EQ(got.payload.size(), 72u);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(got.payload[i], 0x22) << "trial " << trial << " byte " << i;
    }
  }
}

// Two disagreeing MF=0 fragments: the first total_size claim stands; the
// conflicting one is counted, not honored (it must neither grow nor shrink
// the datagram under reassembly).
TEST(IpReassemblyRobustness, ConflictingLastFragmentKeepsFirstClaim) {
  IpReassembler r;
  // First claim: [48,60) => total 60.
  EXPECT_FALSE(r.push(raw_fragment(48, pattern(12, 0xAA), false), 0));
  // Conflicting claim: [56,64) => total 64. Ignored.
  EXPECT_FALSE(r.push(raw_fragment(56, pattern(8, 0xBB), false), 0));
  auto out = r.push(raw_fragment(0, pattern(56, 0x11), true), 0);
  ASSERT_TRUE(out.has_value());
  auto got = parse_ipv4(*out).value();
  EXPECT_EQ(got.payload.size(), 60u);  // 64 would mean the second claim won
}

TEST(IpReassemblyRobustness, BufferCapEvictsOldestFlow) {
  ReassemblyLimits limits;
  limits.max_buffers = 2;
  IpReassembler r(seconds(30), limits);
  // Three concurrent flows, one fragment each, arriving at distinct times.
  EXPECT_FALSE(r.push(raw_fragment(0, pattern(16, 1), true, 1), 0));
  EXPECT_FALSE(r.push(raw_fragment(0, pattern(16, 2), true, 2), milliseconds(1)));
  EXPECT_FALSE(r.push(raw_fragment(0, pattern(16, 3), true, 3), milliseconds(2)));
  EXPECT_EQ(r.pending(), 2u);  // flow 1 (oldest) was evicted
  // Completing the evicted flow cannot succeed from its last fragment alone.
  EXPECT_FALSE(r.push(raw_fragment(16, pattern(8, 1), false, 1), milliseconds(3)));
  // The newest flow still completes normally.
  auto out = r.push(raw_fragment(16, pattern(8, 3), false, 3), milliseconds(3));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(parse_ipv4(*out).value().payload.size(), 24u);
}

TEST(IpReassemblyRobustness, PieceCapStopsHostileFlows) {
  ReassemblyLimits limits;
  limits.max_pieces_per_buffer = 4;
  IpReassembler r(seconds(30), limits);
  // Six pieces of one flow: everything past the fourth is refused, so the
  // flow can never complete — and never grows the buffer either.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_FALSE(r.push(raw_fragment(i * 8, pattern(8, 0x44), i + 1 < 6), 0));
  }
  EXPECT_EQ(r.pending(), 1u);
}

TEST(IpReassemblyRobustness, OversizeOffsetFragmentIsDropped) {
  ReassemblyLimits limits;
  limits.max_datagram_bytes = 1000;
  IpReassembler r(seconds(30), limits);
  EXPECT_FALSE(r.push(raw_fragment(1024, pattern(8, 0x55), true), 0));
  EXPECT_EQ(r.pending(), 0u);  // not even buffered
}

TEST(IpReassemblyRobustness, OverlongPieceIsClampedToMaxDatagram) {
  ReassemblyLimits limits;
  limits.max_datagram_bytes = 64;
  IpReassembler r(seconds(30), limits);
  // [0,128) payload against a 64-byte ceiling: the stored piece is clamped,
  // and a last fragment at [56,64) completes a 64-byte datagram.
  EXPECT_FALSE(r.push(raw_fragment(0, pattern(128, 0x66), true), 0));
  auto out = r.push(raw_fragment(56, pattern(8, 0x77), false), 0);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(parse_ipv4(*out).value().payload.size(), 64u);
}

#if LIBERATE_OBS_LEVEL >= 2
class IpReassemblyProvenance : public ::testing::Test {
 protected:
  static void reset() { obs::prov::ProvenanceRecorder::instance().reset(); }
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

// A fragment whose lineage node is evicted before its datagram completes is
// re-registered by the reassembly edge with its real size, not as a
// zero-length stub.
TEST_F(IpReassemblyProvenance, EvictedPieceIsReRegisteredWithItsSize) {
  auto& rec = obs::prov::ProvenanceRecorder::instance();
  IpReassembler r;
  Bytes first = raw_fragment(0, pattern(16, 0x11), true);
  Bytes last = raw_fragment(16, pattern(8, 0x22), false);
  const std::uint64_t first_id = obs::prov::packet_id(first);
  EXPECT_FALSE(r.push(first, 0));
  // A full node table of newer packets pushes the fragment out.
  for (std::size_t i = 0; i < obs::prov::ProvenanceRecorder::kNodeCapacity;
       ++i) {
    Bytes filler = pattern(40, 0);
    for (std::size_t b = 0; b < 4; ++b) {
      filler[b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    rec.packet(filler, "wire");
  }
  ASSERT_FALSE(rec.node(first_id).has_value());  // evicted

  auto out = r.push(last, 0);
  ASSERT_TRUE(out.has_value());
  auto node = rec.node(first_id);
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(node->size, first.size());
  auto hops = rec.parents_of(obs::prov::packet_id(*out));
  EXPECT_TRUE(std::any_of(hops.begin(), hops.end(), [&](const auto& e) {
    return e.parent == first_id && e.kind == "reassembly";
  }));
}
#endif

}  // namespace
}  // namespace liberate::stack
