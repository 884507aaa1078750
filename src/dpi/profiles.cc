#include "dpi/profiles.h"

#include "dpi/normalizer.h"
#include "dpi/stun_parser.h"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace liberate::dpi {

using netsim::Anomaly;
using netsim::anomaly_bit;
using netsim::AnomalySet;
using netsim::ip_addr;
using netsim::RouterHop;
using netsim::ValidationPolicy;

namespace {

AnomalySet set_of(std::initializer_list<Anomaly> list) {
  AnomalySet s = 0;
  for (Anomaly a : list) s |= anomaly_bit(a);
  return s;
}

// --------------------------------------------------------------------------
// Canonical rule sets. Trace generators (src/trace) emit content containing
// exactly these fields, mirroring the applications the paper replayed.
// --------------------------------------------------------------------------

// Every carrier-grade classifier recognizes far more applications than it
// differentiates. The "news" class below is one such benign-but-classified
// application; inert-packet evasion relies on it (Fig. 2(b)/(c): the inert
// packet carries a valid request for *another* class, and a match-and-forget
// classifier sticks to that benign verdict).
MatchRule benign_news_rule(bool anchored, std::optional<std::uint16_t> port) {
  MatchRule r;
  r.name = "benign-news";
  r.traffic_class = "news";
  if (anchored) {
    r.keywords = {"GET", "news-decoy.example.net"};
    r.anchored = true;
  } else {
    r.keywords = {"news-decoy.example.net"};
  }
  r.dst_port = port;
  return r;
}

std::vector<MatchRule> testbed_rules() {
  std::vector<MatchRule> rules;
  {
    MatchRule r;
    r.name = "testbed-http-video";
    r.traffic_class = "video";
    r.keywords = {"Host: d25xi40x97liuc.cloudfront.net"};
    rules.push_back(r);
  }
  {
    MatchRule r;
    r.name = "testbed-http-music";
    r.traffic_class = "music";
    r.keywords = {"Host: api.spotify.com"};
    rules.push_back(r);
  }
  {
    MatchRule r;
    r.name = "testbed-skype-stun";
    r.traffic_class = "voip";
    r.udp = true;
    r.stun_attribute = kStunAttrMsServiceQuality;
    r.only_packet_index = 1;  // first client packet only (§6.1)
    rules.push_back(r);
  }
  rules.push_back(benign_news_rule(false, std::nullopt));
  return rules;
}

std::vector<MatchRule> tmus_rules() {
  std::vector<MatchRule> rules;
  {
    MatchRule r;  // Amazon Prime Video over CloudFront (Host header)
    r.name = "tmus-host-cloudfront";
    r.traffic_class = "video";
    r.keywords = {"cloudfront.net"};
    rules.push_back(r);
  }
  {
    MatchRule r;  // YouTube (TLS SNI)
    r.name = "tmus-sni-googlevideo";
    r.traffic_class = "video";
    r.keywords = {".googlevideo.com"};
    rules.push_back(r);
  }
  {
    MatchRule r;  // Spotify (Music Freedom)
    r.name = "tmus-spotify";
    r.traffic_class = "music";
    r.keywords = {"spotify.com"};
    rules.push_back(r);
  }
  rules.push_back(benign_news_rule(false, std::nullopt));
  return rules;
}

std::vector<MatchRule> gfc_rules() {
  std::vector<MatchRule> rules;
  {
    MatchRule r;
    r.name = "gfc-economist";
    r.traffic_class = "censored";
    r.keywords = {"GET", "economist.com"};
    r.anchored = true;  // stream must open with GET (dummy-byte prepend evades)
    rules.push_back(r);
  }
  {
    MatchRule r;
    r.name = "gfc-facebook";
    r.traffic_class = "censored";
    r.keywords = {"GET", "facebook.com"};
    r.anchored = true;
    rules.push_back(r);
  }
  rules.push_back(benign_news_rule(true, std::nullopt));
  return rules;
}

std::vector<MatchRule> iran_rules() {
  std::vector<MatchRule> rules;
  {
    MatchRule r;
    r.name = "iran-facebook";
    r.traffic_class = "censored";
    r.keywords = {"GET", "facebook.com"};
    r.dst_port = 80;  // port-specific + content-specific (§6.6)
    rules.push_back(r);
  }
  {
    MatchRule r;
    r.name = "iran-twitter";
    r.traffic_class = "censored";
    r.keywords = {"GET", "twitter.com"};
    r.dst_port = 80;
    rules.push_back(r);
  }
  rules.push_back(benign_news_rule(false, 80));
  return rules;
}

}  // namespace

double diurnal_load(double hour_of_day) {
  // Trough at 04:00, peak around 16:00; smooth cosine shape in [0, 1].
  return 0.5 * (1.0 - std::cos(2.0 * M_PI * (hour_of_day - 4.0) / 24.0));
}

netsim::Duration gfc_eviction_threshold(netsim::TimePoint now) {
  double hour = std::fmod(netsim::to_seconds(now) / 3600.0, 24.0);
  double load = diurnal_load(hour);
  // Busy hours: state evicted after ~40 s idle; quiet hours: ~10 min (well
  // beyond the 240 s maximum delay the paper tested, hence the red dots in
  // Figure 4 at night).
  double seconds = 40.0 + (1.0 - load) * 560.0;
  return static_cast<netsim::Duration>(seconds * 1e6);
}

namespace {

// The testbed's classifier (§6.1).
ClassifierConfig testbed_config() {
  ClassifierConfig c;
  c.name = "testbed";
  // The testbed device "does not check for a wide range of invalid packet
  // header values" (§1): it validates only the fields whose Table 3 rows
  // show CC = x.
  c.validated_anomalies =
      set_of({Anomaly::kBadIpVersion, Anomaly::kBadIpHeaderLength,
              Anomaly::kIpTotalLengthShort, Anomaly::kBadTcpDataOffset});
  c.requires_syn = true;
  c.match_and_forget = true;
  c.mode = ClassifierConfig::Mode::kPerPacket;
  c.packet_inspection_limit = 5;
  c.inspect_udp = true;
  c.parse_transport_despite_wrong_protocol = true;  // Table 3 note 1
  c.validate_tcp_seq = false;
  c.result_timeout = netsim::seconds(120);       // §6.1
  c.flush_flow_on_rst = true;                    // RST is a teardown signal
  c.result_cache_after_rst = netsim::seconds(10);  // result lingers 10 s
  c.idle_eviction_threshold = [](netsim::TimePoint) {
    return netsim::seconds(120);
  };
  return c;
}

// The testbed's topology, rules and actions, shared with the
// ambiguity-fingerprint profiles so that their digests differ ONLY through
// the parsing/normalization policies under probe. The fleet soak relies on
// this — a scripted classifier swap applied to a running testbed world must
// land exactly on a named profile's fingerprint.
std::unique_ptr<Environment> make_testbed_like(
    const std::string& name, ClassifierConfig c,
    const std::function<void(Environment&)>& pre_dpi_elements,
    std::uint64_t seed) {
  auto env = std::make_unique<Environment>();
  env->name = name;
  env->signal = Environment::Signal::kDirect;

  MiddleboxConfig mc;
  mc.classifier = std::move(c);
  mc.rules = testbed_rules();
  PolicyAction shape;
  shape.throttle_bytes_per_sec = 1.5e6 / 8;
  mc.actions["video"] = shape;
  mc.actions["music"] = shape;
  mc.actions["voip"] = shape;
  mc.seed = seed;

  env->net.emplace<RouterHop>(ip_addr("10.1.0.1"));
  env->pre_middlebox_tap = &env->net.emplace<netsim::TapElement>("pre-dpi");
  if (pre_dpi_elements) pre_dpi_elements(*env);
  env->dpi = &env->net.emplace<DpiMiddlebox>(mc);
  auto& exit = env->net.emplace<RouterHop>(ip_addr("10.1.0.2"));
  ValidationPolicy exit_filter;
  exit_filter.checked =
      set_of({Anomaly::kBadIpVersion, Anomaly::kBadIpHeaderLength,
              Anomaly::kIpTotalLengthLong, Anomaly::kIpTotalLengthShort,
              Anomaly::kBadIpChecksum, Anomaly::kTcpDataNoAck});
  exit.filter(exit_filter);
  env->hops_before_middlebox = 1;
  env->total_router_hops = 2;
  return env;
}

}  // namespace

std::unique_ptr<Environment> make_testbed(std::uint64_t seed) {
  return make_testbed_like("testbed", testbed_config(), nullptr, seed);
}

std::unique_ptr<Environment> make_tmus(std::uint64_t seed) {
  auto env = std::make_unique<Environment>();
  env->name = "tmus";
  env->signal = Environment::Signal::kZeroRating;

  ClassifierConfig c;
  c.name = "tmus-binge-on";
  c.validated_anomalies = set_of(
      {Anomaly::kBadIpVersion, Anomaly::kBadIpHeaderLength,
       Anomaly::kIpTotalLengthLong, Anomaly::kIpTotalLengthShort,
       Anomaly::kBadIpChecksum, Anomaly::kUnknownIpProtocol,
       Anomaly::kBadTcpChecksum, Anomaly::kBadTcpDataOffset,
       Anomaly::kInvalidTcpFlagCombo, Anomaly::kTcpDataNoAck});
  c.requires_syn = true;
  c.match_and_forget = true;
  c.mode = ClassifierConfig::Mode::kStream;
  c.stream_anchor_prefixes = {"GET", std::string("\x16\x03", 2)};
  c.stream_handles_out_of_order = false;  // reordering evades (§6.2)
  c.packet_inspection_limit = 5;          // first five packets only (§6.2)
  c.inspect_udp = false;                  // QUIC/UDP unclassified (§6.2)
  c.validate_tcp_seq = true;
  c.result_timeout = std::nullopt;        // persists > 240 s (§6.2)
  c.flush_flow_on_rst = true;             // flushed immediately on RST (§6.2)

  MiddleboxConfig mc;
  mc.classifier = c;
  mc.rules = tmus_rules();
  PolicyAction video;
  video.zero_rate = true;
  video.throttle_bytes_per_sec = 1.5e6 / 8;  // Binge On "DVD quality"
  mc.actions["video"] = video;
  PolicyAction music;
  music.zero_rate = true;
  mc.actions["music"] = music;
  mc.seed = seed;

  // Cellular access link: generous default; §6.2's throughput bench varies
  // the rate to model a real radio link.
  env->base_bandwidth = &env->net.emplace<netsim::BandwidthElement>(
      15e6 / 8, 256 * 1024);
  env->net.emplace<RouterHop>(ip_addr("10.2.0.1"));
  env->net.emplace<RouterHop>(ip_addr("10.2.0.2"));
  env->net.emplace<ReassemblyElement>();  // fragments reassembled mid-path
  env->pre_middlebox_tap = &env->net.emplace<netsim::TapElement>("pre-dpi");
  env->dpi = &env->net.emplace<DpiMiddlebox>(mc);
  ValidationPolicy carrier;
  carrier.checked = set_of(
      {Anomaly::kBadIpVersion, Anomaly::kBadIpHeaderLength,
       Anomaly::kIpTotalLengthLong, Anomaly::kIpTotalLengthShort,
       Anomaly::kBadIpChecksum, Anomaly::kInvalidIpOptions,
       Anomaly::kDeprecatedIpOptions, Anomaly::kBadTcpChecksum,
       Anomaly::kBadTcpDataOffset, Anomaly::kInvalidTcpFlagCombo,
       Anomaly::kTcpDataNoAck, Anomaly::kBadUdpChecksum,
       Anomaly::kUdpLengthLong, Anomaly::kUdpLengthShort});
  env->net.emplace<ConntrackFilter>(carrier, /*validate_seq=*/true);
  env->net.emplace<RouterHop>(ip_addr("10.2.0.3"));
  env->hops_before_middlebox = 2;  // TTL = 3 suffices (§6.2)
  env->total_router_hops = 3;
  return env;
}

std::unique_ptr<Environment> make_gfc(std::uint64_t seed) {
  auto env = std::make_unique<Environment>();
  env->name = "gfc";
  env->signal = Environment::Signal::kBlocking;

  ClassifierConfig c;
  c.name = "great-firewall";
  // "the GFC does extensive packet validation" (§1) — but notably NOT the
  // TCP checksum, and it accepts data segments without an ACK flag.
  c.validated_anomalies = set_of(
      {Anomaly::kBadIpVersion, Anomaly::kBadIpHeaderLength,
       Anomaly::kIpTotalLengthLong, Anomaly::kIpTotalLengthShort,
       Anomaly::kBadIpChecksum, Anomaly::kUnknownIpProtocol,
       Anomaly::kInvalidIpOptions, Anomaly::kDeprecatedIpOptions,
       Anomaly::kBadTcpDataOffset, Anomaly::kInvalidTcpFlagCombo});
  c.requires_syn = true;  // mid-flow packets on unknown flows are ignored
  c.match_and_forget = true;
  c.mode = ClassifierConfig::Mode::kStream;
  c.stream_handles_out_of_order = true;  // reordering does NOT evade (§6.5)
  c.packet_inspection_limit = 0;
  c.inspect_udp = false;                 // UDP unclassified (§6.5)
  c.validate_tcp_seq = true;
  c.flush_flow_on_rst = true;            // RST before match evades...
  c.block_survives_flush = true;         // ...RST after match does not
  c.idle_eviction_threshold = gfc_eviction_threshold;  // Figure 4

  MiddleboxConfig mc;
  mc.classifier = c;
  mc.rules = gfc_rules();
  PolicyAction block;
  block.block = true;
  block.rst_count_min = 3;  // "blocked by 3-5 RST packets" (§6.5)
  block.rst_count_max = 5;
  block.drop_matching_packet = false;  // on-path injector
  mc.actions["censored"] = block;
  mc.endpoint_escalation = true;   // blocks server:port after 2 flows (§6.5)
  mc.escalation_threshold = 2;
  mc.escalation_duration = netsim::seconds(120);
  mc.seed = seed;

  for (int i = 0; i < 9; ++i) {
    env->net.emplace<RouterHop>(ip_addr("10.3.0.1") +
                                static_cast<std::uint32_t>(i));
  }
  env->net.emplace<ReassemblyElement>();
  env->pre_middlebox_tap = &env->net.emplace<netsim::TapElement>("pre-dpi");
  env->dpi = &env->net.emplace<DpiMiddlebox>(mc);
  auto& exit = env->net.emplace<RouterHop>(ip_addr("10.3.0.100"));
  ValidationPolicy gfc_path;
  gfc_path.checked = set_of(
      {Anomaly::kBadIpVersion, Anomaly::kBadIpHeaderLength,
       Anomaly::kIpTotalLengthLong, Anomaly::kIpTotalLengthShort,
       Anomaly::kBadIpChecksum, Anomaly::kInvalidIpOptions,
       Anomaly::kDeprecatedIpOptions, Anomaly::kUdpLengthLong,
       Anomaly::kUdpLengthShort});
  exit.filter(gfc_path);
  exit.fix_tcp_checksums();  // Table 3 note 4
  env->hops_before_middlebox = 9;  // TTL = 10 evades (§6.5)
  env->total_router_hops = 10;
  return env;
}

std::unique_ptr<Environment> make_iran(std::uint64_t seed) {
  auto env = std::make_unique<Environment>();
  env->name = "iran";
  env->signal = Environment::Signal::kBlocking;

  ClassifierConfig c;
  c.name = "iran-censor";
  // Iran "partially checks for invalid packet headers" (§1): the plain-x
  // rows of Table 3. The note-3 rows are processed — and misclassified.
  c.validated_anomalies = set_of(
      {Anomaly::kBadIpVersion, Anomaly::kBadIpHeaderLength,
       Anomaly::kIpTotalLengthLong, Anomaly::kIpTotalLengthShort,
       Anomaly::kBadIpChecksum, Anomaly::kUnknownIpProtocol,
       Anomaly::kBadTcpDataOffset});
  c.requires_syn = false;
  c.match_and_forget = false;  // inspects EVERY packet (§6.6)
  c.mode = ClassifierConfig::Mode::kPerPacket;
  c.packet_inspection_limit = 0;
  c.inspect_udp = false;
  c.validate_tcp_seq = false;
  c.only_ports = {80};  // port-specific and content-specific rules (§6.6)

  MiddleboxConfig mc;
  mc.classifier = c;
  mc.rules = iran_rules();
  PolicyAction block;
  block.block = true;
  block.rst_count_min = 2;  // "403 Forbidden plus two RST packets" (§6.6)
  block.rst_count_max = 2;
  block.send_403 = true;
  block.drop_matching_packet = true;  // in-path censor
  mc.actions["censored"] = block;
  mc.seed = seed;

  for (int i = 0; i < 7; ++i) {
    auto& r = env->net.emplace<RouterHop>(ip_addr("10.4.0.1") +
                                          static_cast<std::uint32_t>(i));
    if (i == 6) r.drop_fragments();  // IP fragments never arrive (§6.6)
  }
  env->pre_middlebox_tap = &env->net.emplace<netsim::TapElement>("pre-dpi");
  env->dpi = &env->net.emplace<DpiMiddlebox>(mc);
  ValidationPolicy iran_path;
  iran_path.checked = set_of(
      {Anomaly::kBadIpVersion, Anomaly::kBadIpHeaderLength,
       Anomaly::kIpTotalLengthLong, Anomaly::kIpTotalLengthShort,
       Anomaly::kBadIpChecksum, Anomaly::kUnknownIpProtocol,
       Anomaly::kInvalidIpOptions, Anomaly::kDeprecatedIpOptions,
       Anomaly::kBadTcpChecksum, Anomaly::kBadTcpDataOffset,
       Anomaly::kInvalidTcpFlagCombo, Anomaly::kTcpDataNoAck});
  env->net.emplace<ConntrackFilter>(iran_path, /*validate_seq=*/true);
  env->net.emplace<RouterHop>(ip_addr("10.4.0.100"));
  env->hops_before_middlebox = 7;  // "eight hops away" (§6.6)
  env->total_router_hops = 8;
  return env;
}

namespace {

// Suricata-style target-based engine: validating, seq-checking stream
// reassembly with "overlap: last" segment semantics and BSD-left fragment
// reassembly in front.
ClassifierConfig suricata_config() {
  ClassifierConfig c;
  c.name = "suricata";
  c.validated_anomalies =
      set_of({Anomaly::kBadTcpChecksum, Anomaly::kDeprecatedIpOptions,
              Anomaly::kInvalidIpOptions});
  c.requires_syn = true;
  c.match_and_forget = true;
  c.mode = ClassifierConfig::Mode::kStream;
  c.stream_handles_out_of_order = true;
  c.stream_overlap = ClassifierConfig::StreamOverlap::kLastWins;
  c.validate_tcp_seq = true;
  c.packet_inspection_limit = 0;
  return c;
}

// Zeek-style analyzer: first-copy segment semantics, urgent bytes delivered
// out of band (stripped from the inspected stream), checksum validation but
// no sequence-window enforcement, first-wins fragment reassembly.
ClassifierConfig zeek_config() {
  ClassifierConfig c;
  c.name = "zeek";
  c.validated_anomalies =
      set_of({Anomaly::kBadTcpChecksum, Anomaly::kInvalidIpOptions});
  c.requires_syn = true;
  c.match_and_forget = true;
  c.mode = ClassifierConfig::Mode::kStream;
  c.stream_handles_out_of_order = true;
  c.stream_overlap = ClassifierConfig::StreamOverlap::kFirstWins;
  c.validate_tcp_seq = false;
  c.strip_urgent_bytes = true;
  c.packet_inspection_limit = 0;
  return c;
}

// nDPI-style lightweight flow classifier: per-packet matching on the first
// eight payload packets, no header validation, flows picked up mid-stream.
ClassifierConfig ndpi_config() {
  ClassifierConfig c;
  c.name = "ndpi";
  c.validated_anomalies = 0;
  c.requires_syn = false;
  c.match_and_forget = true;
  c.mode = ClassifierConfig::Mode::kPerPacket;
  c.packet_inspection_limit = 8;
  c.validate_tcp_seq = false;
  return c;
}

// netfilter-conntrack-style deployment: a strict normalizer in front (drop
// anything malformed, raise low TTLs, Linux-policy fragment reassembly)
// feeding a stream engine that discards ambiguous retransmissions outright.
ClassifierConfig conntrack_strict_config() {
  ClassifierConfig c;
  c.name = "conntrack-strict";
  c.validated_anomalies = 0;  // the normalizer drops malformed packets
  c.requires_syn = true;
  c.match_and_forget = true;
  c.mode = ClassifierConfig::Mode::kStream;
  c.stream_handles_out_of_order = true;
  c.stream_overlap = ClassifierConfig::StreamOverlap::kIgnore;
  c.validate_tcp_seq = true;
  c.packet_inspection_limit = 0;
  return c;
}

// Permissive first-match middlebox: believes the first copy of every byte,
// validates nothing, drops out-of-order bytes on the floor.
ClassifierConfig permissive_config() {
  ClassifierConfig c;
  c.name = "permissive";
  c.validated_anomalies = 0;
  c.requires_syn = true;
  c.match_and_forget = true;
  c.mode = ClassifierConfig::Mode::kStream;
  c.stream_handles_out_of_order = false;
  c.stream_overlap = ClassifierConfig::StreamOverlap::kFirstWins;
  c.validate_tcp_seq = false;
  return c;
}

}  // namespace

ClassifierConfig ambiguity_profile_config(const std::string& name) {
  if (name == "suricata") return suricata_config();
  if (name == "zeek") return zeek_config();
  if (name == "ndpi") return ndpi_config();
  if (name == "conntrack-strict") return conntrack_strict_config();
  if (name == "permissive") return permissive_config();
  throw std::invalid_argument("unknown ambiguity profile: " + name);
}

std::unique_ptr<Environment> make_suricata(std::uint64_t seed) {
  return make_testbed_like(
      "suricata", suricata_config(),
      [](Environment& env) {
        env.net.emplace<ReassemblyElement>(stack::ReassemblyPolicy::kBsdLeft);
      },
      seed);
}

std::unique_ptr<Environment> make_zeek(std::uint64_t seed) {
  return make_testbed_like(
      "zeek", zeek_config(),
      [](Environment& env) {
        env.net.emplace<ReassemblyElement>(
            stack::ReassemblyPolicy::kFirstWins);
      },
      seed);
}

std::unique_ptr<Environment> make_ndpi(std::uint64_t seed) {
  return make_testbed_like("ndpi", ndpi_config(), nullptr, seed);
}

std::unique_ptr<Environment> make_conntrack_strict(std::uint64_t seed) {
  return make_testbed_like(
      "conntrack-strict", conntrack_strict_config(),
      [](Environment& env) {
        NormalizerConfig nc;
        nc.drop_malformed = true;
        nc.ttl_floor = 10;
        nc.reassemble_fragments = true;
        nc.reassembly_policy = stack::ReassemblyPolicy::kLinux;
        env.net.emplace<NormalizerElement>(nc);
      },
      seed);
}

std::unique_ptr<Environment> make_permissive(std::uint64_t seed) {
  return make_testbed_like("permissive", permissive_config(), nullptr, seed);
}

std::unique_ptr<Environment> make_att(std::uint64_t seed) {
  (void)seed;
  auto env = std::make_unique<Environment>();
  env->name = "att";
  env->signal = Environment::Signal::kThroughput;

  env->net.emplace<RouterHop>(ip_addr("10.5.0.1"));
  env->net.emplace<RouterHop>(ip_addr("10.5.0.2"));
  env->pre_middlebox_tap = &env->net.emplace<netsim::TapElement>("pre-proxy");
  env->proxy = &env->net.emplace<TransparentHttpProxy>(
      TransparentHttpProxy::Config{});
  auto& exit = env->net.emplace<RouterHop>(ip_addr("10.5.0.3"));
  ValidationPolicy att_path;
  att_path.checked = set_of({Anomaly::kBadUdpChecksum, Anomaly::kUdpLengthLong,
                             Anomaly::kUdpLengthShort});
  exit.filter(att_path);
  env->hops_before_middlebox = 2;
  env->total_router_hops = 3;
  return env;
}

std::unique_ptr<Environment> make_sprint(std::uint64_t seed) {
  (void)seed;
  auto env = std::make_unique<Environment>();
  env->name = "sprint";
  env->signal = Environment::Signal::kNone;
  env->differentiates = false;  // no DPI or header-space policy found (§6.4)

  env->net.emplace<RouterHop>(ip_addr("10.6.0.1"));
  env->net.emplace<RouterHop>(ip_addr("10.6.0.2"));
  env->net.emplace<RouterHop>(ip_addr("10.6.0.3"));
  env->hops_before_middlebox = 0;
  env->total_router_hops = 3;
  return env;
}

std::unique_ptr<Environment> make_environment(const std::string& name,
                                              std::uint64_t seed) {
  if (name == "testbed") return make_testbed(seed);
  if (name == "tmus") return make_tmus(seed);
  if (name == "gfc") return make_gfc(seed);
  if (name == "iran") return make_iran(seed);
  if (name == "att") return make_att(seed);
  if (name == "sprint") return make_sprint(seed);
  if (name == "suricata") return make_suricata(seed);
  if (name == "zeek") return make_zeek(seed);
  if (name == "ndpi") return make_ndpi(seed);
  if (name == "conntrack-strict") return make_conntrack_strict(seed);
  if (name == "permissive") return make_permissive(seed);
  return nullptr;
}

std::vector<std::string> environment_names() {
  return {"testbed",  "tmus", "gfc",      "iran",
          "att",      "sprint", "suricata", "zeek",
          "ndpi",     "conntrack-strict", "permissive"};
}

}  // namespace liberate::dpi
