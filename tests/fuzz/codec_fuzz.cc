// codec_fuzz.cc — the codec campaign: parse → mutate → serialize round
// trips over every wire codec and application parser, from one seed.
#include <algorithm>
#include <cstdlib>

#include "dpi/http_parser.h"
#include "dpi/stun_parser.h"
#include "fuzz/fuzz.h"
#include "fuzz/tls_parser.h"
#include "netsim/packet.h"
#include "netsim/validation.h"
#include "stack/ip_reassembly.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace liberate::fuzz {

namespace {

using namespace netsim;

/// Every parser in the tree consumes `input`; none may crash, hang or read
/// out of bounds (the sanitizers enforce the latter).
void exercise_parsers(BytesView input, FuzzStats& stats) {
  ++stats.inputs;
  (void)dpi::parse_http_request(input);
  (void)dpi::parse_http_response(input);
  (void)dpi::looks_like_http_request(input);
  (void)dpi::extract_sni(input);
  (void)dpi::looks_like_tls_client_hello(input);
  (void)dpi::parse_stun(input);
  (void)parse_ipv4(input);
  (void)parse_tcp(input);
  (void)parse_udp(input);
  (void)parse_icmp(input);
  auto pkt = parse_packet(input);
  if (pkt.ok()) {
    ++stats.parsed_packets;
    (void)anomalies_of(pkt.value());
  }
}

Bytes random_payload(Rng& rng) {
  switch (rng.below(4)) {
    case 0:  // HTTP-ish request head, possibly garbled below
      return to_bytes("GET /fuzz HTTP/1.1\r\nHost: fuzz.example\r\n"
                      "User-Agent: libfuzz\r\n\r\n");
    case 1: {  // STUN binding request
      dpi::StunMessage msg;
      msg.message_type = 0x0001;
      msg.transaction_id = rng.bytes(12);
      dpi::StunAttribute attr;
      attr.type = dpi::kStunAttrMsServiceQuality;
      attr.value = rng.bytes(rng.below(16));
      msg.attributes.push_back(attr);
      return dpi::serialize_stun(msg);
    }
    default:
      return rng.bytes(rng.below(600));
  }
}

/// A structured-random datagram: plausible headers with occasional
/// deliberately invalid fields — the same space the inert-packet techniques
/// craft in.
Bytes random_datagram(Rng& rng, bool* clean) {
  *clean = true;
  Ipv4Header ip;
  ip.src = static_cast<std::uint32_t>(rng.next());
  ip.dst = static_cast<std::uint32_t>(rng.next());
  ip.identification = static_cast<std::uint16_t>(rng.next());
  ip.ttl = static_cast<std::uint8_t>(rng.range(1, 255));
  ip.dscp_ecn = static_cast<std::uint8_t>(rng.next());
  if (rng.chance(0.15)) ip.options.push_back(Ipv4Option::nop());
  if (rng.chance(0.1)) {
    ip.options.push_back(
        Ipv4Option::stream_id(static_cast<std::uint16_t>(rng.next())));
  }
  if (rng.chance(0.05)) {
    ip.options.push_back(Ipv4Option::invalid_length());
    *clean = false;
  }
  if (rng.chance(0.05)) {
    ip.total_length_override = static_cast<std::uint16_t>(rng.next());
    *clean = false;
  }
  if (rng.chance(0.05)) {
    ip.checksum_override = static_cast<std::uint16_t>(rng.next());
    *clean = false;
  }
  if (rng.chance(0.03)) {
    ip.version = static_cast<std::uint8_t>(rng.below(16));
    *clean = false;
  }

  Bytes payload = random_payload(rng);
  switch (rng.below(3)) {
    case 0: {
      TcpHeader tcp;
      tcp.src_port = static_cast<std::uint16_t>(rng.next());
      tcp.dst_port = static_cast<std::uint16_t>(rng.next());
      tcp.seq = static_cast<std::uint32_t>(rng.next());
      tcp.ack = static_cast<std::uint32_t>(rng.next());
      tcp.flags = static_cast<std::uint8_t>(rng.next());
      tcp.window = static_cast<std::uint16_t>(rng.next());
      if (rng.chance(0.2)) tcp.options.push_back(TcpOption::mss(1460));
      if (rng.chance(0.05)) {
        tcp.data_offset_words = static_cast<std::uint8_t>(rng.below(16));
        *clean = false;
      }
      if (rng.chance(0.05)) {
        tcp.checksum_override = static_cast<std::uint16_t>(rng.next());
        *clean = false;
      }
      return make_tcp_datagram(ip, tcp, payload);
    }
    case 1: {
      UdpHeader udp;
      udp.src_port = static_cast<std::uint16_t>(rng.next());
      udp.dst_port = static_cast<std::uint16_t>(rng.next());
      return make_udp_datagram(ip, udp, payload);
    }
    default: {
      IcmpMessage icmp;
      icmp.type = static_cast<IcmpType>(rng.below(256));
      icmp.code = static_cast<std::uint8_t>(rng.next());
      icmp.body = rng.bytes(rng.below(128));
      return make_icmp_datagram(ip, icmp);
    }
  }
}

/// serialize → parse identity on a cleanly built datagram: the parse must
/// succeed, report no anomalies, and agree on the fields that identify the
/// packet.
void check_ipv4_roundtrip(const Bytes& dgram, FuzzStats& stats) {
  ++stats.roundtrips_checked;
  auto parsed = parse_ipv4(dgram);
  if (!parsed.ok() || parsed.value().any_anomaly()) {
    ++stats.roundtrip_mismatches;
    return;
  }
  const Ipv4View& v = parsed.value();
  // Re-serialize from the parsed view and parse again: field-stable.
  Ipv4Header h;
  h.dscp_ecn = v.dscp_ecn;
  h.identification = v.identification;
  h.flag_dont_fragment = v.flag_dont_fragment;
  h.flag_more_fragments = v.flag_more_fragments;
  h.fragment_offset_words = v.fragment_offset_words;
  h.ttl = v.ttl;
  h.protocol = v.protocol;
  h.src = v.src;
  h.dst = v.dst;
  h.options = v.options;
  Bytes rebuilt = serialize_ipv4(h, v.payload);
  auto reparsed = parse_ipv4(rebuilt);
  if (!reparsed.ok()) {
    ++stats.roundtrip_mismatches;
    return;
  }
  const Ipv4View& r = reparsed.value();
  if (r.src != v.src || r.dst != v.dst ||
      r.identification != v.identification || r.ttl != v.ttl ||
      r.protocol != v.protocol || r.any_anomaly() ||
      Bytes(r.payload.begin(), r.payload.end()) !=
          Bytes(v.payload.begin(), v.payload.end())) {
    ++stats.roundtrip_mismatches;
  }
}

void check_stun_roundtrip(Rng& rng, FuzzStats& stats) {
  dpi::StunMessage msg;
  msg.message_type = static_cast<std::uint16_t>(rng.below(0x4000));
  msg.transaction_id = rng.bytes(12);
  std::size_t attrs = rng.below(4);
  for (std::size_t i = 0; i < attrs; ++i) {
    dpi::StunAttribute a;
    a.type = static_cast<std::uint16_t>(rng.next());
    a.value = rng.bytes(rng.below(32));
    msg.attributes.push_back(a);
  }
  ++stats.roundtrips_checked;
  Bytes wire = dpi::serialize_stun(msg);
  auto back = dpi::parse_stun(wire);
  if (!back || back->message_type != msg.message_type ||
      back->transaction_id != msg.transaction_id ||
      back->attributes.size() != msg.attributes.size()) {
    ++stats.roundtrip_mismatches;
    return;
  }
  for (std::size_t i = 0; i < msg.attributes.size(); ++i) {
    if (back->attributes[i].type != msg.attributes[i].type ||
        back->attributes[i].value != msg.attributes[i].value) {
      ++stats.roundtrip_mismatches;
      return;
    }
  }
}

void check_sni_roundtrip(Rng& rng, FuzzStats& stats) {
  std::string sni = "fuzz";
  std::size_t labels = 1 + rng.below(3);
  for (std::size_t i = 0; i < labels; ++i) {
    sni += ".";
    std::size_t len = 1 + rng.below(12);
    for (std::size_t j = 0; j < len; ++j) {
      sni += static_cast<char>('a' + rng.below(26));
    }
  }
  trace::TlsTraceOptions opts;
  opts.sni = sni;
  opts.response_body_bytes = 16;
  opts.seed = rng.next();
  auto trace = trace::make_tls_trace("fuzz", opts);
  ++stats.roundtrips_checked;
  auto got = dpi::extract_sni(trace.messages.at(0).payload);
  if (!got || *got != sni) ++stats.roundtrip_mismatches;
}

/// fragment → shuffle → reassemble must reproduce the original payload.
void check_fragmentation_roundtrip(Rng& rng, FuzzStats& stats) {
  Ipv4Header ip;
  ip.src = static_cast<std::uint32_t>(rng.next());
  ip.dst = static_cast<std::uint32_t>(rng.next());
  ip.identification = static_cast<std::uint16_t>(rng.next());
  TcpHeader tcp;
  tcp.src_port = 1000;
  tcp.dst_port = 80;
  tcp.flags = TcpFlags::kAck;
  Bytes dgram = make_tcp_datagram(ip, tcp, rng.bytes(64 + rng.below(2000)));
  std::size_t pieces = 2 + rng.below(7);
  auto frags = fragment_datagram(dgram, pieces);
  // Deterministic Fisher-Yates off the iteration rng.
  for (std::size_t i = frags.size(); i > 1; --i) {
    std::swap(frags[i - 1], frags[rng.below(i)]);
  }
  stack::IpReassembler reasm;
  std::optional<Bytes> whole;
  for (const Bytes& f : frags) {
    ++stats.fragments_pushed;
    auto out = reasm.push(f, 0);
    if (out) whole = std::move(out);
  }
  ++stats.roundtrips_checked;
  if (!whole) {
    ++stats.roundtrip_mismatches;
    return;
  }
  ++stats.datagrams_reassembled;
  auto orig = parse_ipv4(dgram);
  auto got = parse_ipv4(*whole);
  if (!orig.ok() || !got.ok() ||
      Bytes(orig.value().payload.begin(), orig.value().payload.end()) !=
          Bytes(got.value().payload.begin(), got.value().payload.end())) {
    ++stats.roundtrip_mismatches;
  }
}

}  // namespace

void FuzzStats::merge(const FuzzStats& o) {
  iterations += o.iterations;
  inputs += o.inputs;
  parsed_packets += o.parsed_packets;
  roundtrips_checked += o.roundtrips_checked;
  if (roundtrip_mismatches + match_divergences == 0 &&
      o.roundtrip_mismatches + o.match_divergences > 0) {
    first_failure_seed = o.first_failure_seed;
  }
  roundtrip_mismatches += o.roundtrip_mismatches;
  datagrams_reassembled += o.datagrams_reassembled;
  fragments_pushed += o.fragments_pushed;
  segments_injected += o.segments_injected;
  stream_bytes_delivered += o.stream_bytes_delivered;
  match_programs_compiled += o.match_programs_compiled;
  match_fallback_programs += o.match_fallback_programs;
  match_cases_checked += o.match_cases_checked;
  match_divergences += o.match_divergences;
}

std::uint64_t iteration_seed(std::uint64_t base_seed, std::uint64_t index) {
  return splitmix64(base_seed + 0x9e3779b97f4a7c15ULL * index);
}

std::uint64_t campaign_iterations(std::uint64_t fallback) {
  const char* env = std::getenv("LIBERATE_FUZZ_ITERATIONS");
  if (!env) return fallback;
  long long v = std::atoll(env);
  return v > 0 ? static_cast<std::uint64_t>(v) : fallback;
}

void run_codec_iteration(std::uint64_t seed, FuzzStats& stats) {
  Rng rng(seed);
  ++stats.iterations;

  // 1. Pure junk through every parser.
  exercise_parsers(rng.bytes(rng.below(1600)), stats);

  // 2. A structured-random datagram (possibly deliberately invalid).
  bool clean = false;
  Bytes dgram = random_datagram(rng, &clean);
  exercise_parsers(dgram, stats);

  // 3. serialize → parse identity, valid-field builds only.
  if (clean) check_ipv4_roundtrip(dgram, stats);

  // 4. Mutations: bit flips, then a random truncation.
  Bytes mutated = dgram;
  int flips = 1 + static_cast<int>(rng.below(8));
  for (int f = 0; f < flips; ++f) {
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
  }
  exercise_parsers(mutated, stats);
  exercise_parsers(BytesView(mutated.data(), rng.below(mutated.size() + 1)),
                   stats);

  // 5. Application codec round trips.
  check_stun_roundtrip(rng, stats);
  if (rng.chance(0.25)) check_sni_roundtrip(rng, stats);

  // 6. Fragmentation → reassembly round trip.
  check_fragmentation_roundtrip(rng, stats);

  if (stats.roundtrip_mismatches > 0 && stats.first_failure_seed == 0) {
    stats.first_failure_seed = seed;
  }
}

FuzzStats run_codec_campaign(std::uint64_t base_seed,
                             std::uint64_t iterations) {
  FuzzStats stats;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    run_codec_iteration(iteration_seed(base_seed, i), stats);
  }
  return stats;
}

void run_corpus_entry(BytesView input, FuzzStats& stats) {
  exercise_parsers(input, stats);
  stack::IpReassembler reasm;
  ++stats.fragments_pushed;
  if (reasm.push(input, 0)) ++stats.datagrams_reassembled;
}

}  // namespace liberate::fuzz
