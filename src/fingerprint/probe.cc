#include "fingerprint/probe.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <utility>

#include "dpi/classifier.h"
#include "dpi/middlebox.h"
#include "netsim/event_loop.h"
#include "netsim/network.h"
#include "netsim/packet.h"
#include "stack/ip_reassembly.h"
#include "util/thread_pool.h"

namespace liberate::fingerprint {
namespace {

// ---------------------------------------------------------------------------
// Probe flow identity. A fixed tuple keeps every script's DPI log query and
// server-side stream identical across runs; each script gets its own world,
// so reuse between scripts never collides.
constexpr std::uint32_t kProbeClientIp = 0x0a090901;  // 10.9.9.1
constexpr std::uint32_t kProbeServerIp = 0xc6336463;  // 198.51.100.99
constexpr std::uint16_t kProbeSrcPort = 41000;
constexpr std::uint16_t kProbeDstPort = 80;
constexpr std::uint16_t kFragIdent = 0x7777;
constexpr std::uint32_t kDefaultIsn = 5000;

// The canonical probe payload. Every profile ships the no-action
// "benign_news_rule" whose keyword is the Host value, so a probe landing the
// keyword in the classifier's reconstruction logs a "news" event and nothing
// else changes. Request line = bytes [0, 17); keyword = bytes [23, 45).
constexpr std::string_view kProbePayload =
    "GET /a HTTP/1.1\r\nHost: news-decoy.example.net\r\n\r\n";
constexpr std::string_view kDecoyKeyword = "news-decoy.example.net";
constexpr std::string_view kDecoyClass = "news";
constexpr std::size_t kRequestLineEnd = 17;

netsim::FiveTuple probe_tuple() {
  netsim::FiveTuple t;
  t.src_ip = kProbeClientIp;
  t.dst_ip = kProbeServerIp;
  t.src_port = kProbeSrcPort;
  t.dst_port = kProbeDstPort;
  t.protocol = static_cast<std::uint8_t>(netsim::IpProto::kTcp);
  return t;
}

Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

Bytes garbage(std::size_t n) { return Bytes(n, 'X'); }

ProbePacket seg(std::uint32_t rel_seq, Bytes payload) {
  ProbePacket p;
  p.kind = ProbePacket::Kind::kSegment;
  p.rel_seq = rel_seq;
  p.payload = std::move(payload);
  return p;
}

ProbePacket frag(std::uint16_t offset_words, bool more, Bytes payload) {
  ProbePacket p;
  p.kind = ProbePacket::Kind::kFragment;
  p.frag_offset_words = offset_words;
  p.more_fragments = more;
  p.payload = std::move(payload);
  return p;
}

ProbeScript script(std::string dimension, std::uint32_t variant,
                   std::vector<ProbePacket> packets,
                   std::uint32_t isn = kDefaultIsn, bool send_syn = true) {
  ProbeScript s;
  s.dimension = std::move(dimension);
  s.variant = variant;
  s.isn = isn;
  s.send_syn = send_syn;
  s.packets = std::move(packets);
  return s;
}

// ---------------------------------------------------------------------------
// Wire crafting.

netsim::Ipv4Header base_ip() {
  netsim::Ipv4Header ip;
  ip.src = kProbeClientIp;
  ip.dst = kProbeServerIp;
  return ip;
}

netsim::TcpHeader base_tcp() {
  netsim::TcpHeader tcp;
  tcp.src_port = kProbeSrcPort;
  tcp.dst_port = kProbeDstPort;
  return tcp;
}

// Flip the TCP checksum in a serialized datagram. 0x55 per byte never maps
// the ones-complement pair 0x0000/0xFFFF onto each other, so the result is
// always invalid.
void corrupt_checksum_in_place(Bytes& datagram) {
  auto ip = netsim::parse_ipv4(BytesView(datagram));
  if (!ip.ok()) return;
  const std::size_t at = ip.value().header_length + 16;
  if (at + 1 >= datagram.size()) return;
  datagram[at] ^= 0x55;
  datagram[at + 1] ^= 0x55;
}

std::vector<Bytes> build_wire_packets(const ProbeScript& s) {
  std::vector<Bytes> out;
  out.reserve(s.packets.size() + 1);
  if (s.send_syn) {
    netsim::TcpHeader tcp = base_tcp();
    tcp.seq = s.isn;
    tcp.flags = netsim::TcpFlags::kSyn;
    out.push_back(netsim::make_tcp_datagram(base_ip(), tcp, {}));
  }
  for (const ProbePacket& p : s.packets) {
    if (p.kind == ProbePacket::Kind::kFragment) {
      netsim::Ipv4Header ip = base_ip();
      ip.identification = kFragIdent;
      ip.protocol = static_cast<std::uint8_t>(netsim::IpProto::kTcp);
      ip.flag_more_fragments = p.more_fragments;
      ip.fragment_offset_words = p.frag_offset_words;
      out.push_back(netsim::serialize_ipv4(ip, BytesView(p.payload)));
      continue;
    }
    netsim::Ipv4Header ip = base_ip();
    if (p.ttl != 0) ip.ttl = p.ttl;
    if (p.ip_option_kind == 136) {
      ip.options.push_back(netsim::Ipv4Option::stream_id(7));
    } else if (p.ip_option_kind == kInvalidIpOptionKind) {
      ip.options.push_back(netsim::Ipv4Option::invalid_length());
    }
    netsim::TcpHeader tcp = base_tcp();
    tcp.seq = s.isn + 1 + p.rel_seq;  // uint32 wrap is intentional
    tcp.ack = 1;                      // data without ACK trips exit filters
    tcp.flags =
        p.tcp_flags != 0 ? p.tcp_flags : netsim::TcpFlags::kAck;
    tcp.urgent_ptr = p.urgent_ptr;
    Bytes datagram = netsim::make_tcp_datagram(ip, tcp, BytesView(p.payload));
    if (p.corrupt_tcp_checksum) corrupt_checksum_in_place(datagram);
    out.push_back(std::move(datagram));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Endpoint sinks. The server models a strict, well-behaved receiver: TCP
// checksums are verified, the in-order stream is first-wins (retransmitted
// bytes never overwrite delivered ones), future segments buffer within a
// 64 KiB window, fragments reassemble last-wins, and the urgent byte is
// pulled out of the application stream. The probe verdict is simply whether
// the decoy keyword ended up in the delivered stream.

class NullHost : public netsim::HostIface {
 public:
  void receive(Bytes) override {}
};

class ServerSink : public netsim::HostIface {
 public:
  explicit ServerSink(netsim::EventLoop& loop) : loop_(loop) {}

  void receive(Bytes datagram) override {
    auto whole = reassembler_.push(BytesView(datagram), loop_.now());
    if (whole) deliver(*whole);
  }

  bool keyword_seen() const {
    return std::search(stream_.begin(), stream_.end(), kDecoyKeyword.begin(),
                       kDecoyKeyword.end()) != stream_.end();
  }

 private:
  struct Pending {
    std::uint32_t wire_len = 0;
    Bytes data;
  };

  void deliver(const Bytes& datagram) {
    auto ip_r = netsim::parse_ipv4(BytesView(datagram));
    if (!ip_r.ok()) return;
    const netsim::Ipv4View& ip = ip_r.value();
    if (ip.protocol != static_cast<std::uint8_t>(netsim::IpProto::kTcp)) {
      return;
    }
    if (!netsim::tcp_checksum_ok(ip.payload, ip.src, ip.dst)) return;
    auto tcp_r = netsim::parse_tcp(ip.payload);
    if (!tcp_r.ok()) return;
    const netsim::TcpView& tcp = tcp_r.value();
    if (tcp.rst()) return;
    if (tcp.syn()) {
      synced_ = true;
      rcv_nxt_ = tcp.seq + 1;
      return;
    }
    if (tcp.payload.empty()) return;
    Bytes data(tcp.payload.begin(), tcp.payload.end());
    if (tcp.has(netsim::TcpFlags::kUrg) && tcp.urgent_ptr > 0 &&
        tcp.urgent_ptr <= data.size()) {
      data.erase(data.begin() + (tcp.urgent_ptr - 1));
    }
    const auto wire_len = static_cast<std::uint32_t>(tcp.payload.size());
    if (!synced_) {
      synced_ = true;
      rcv_nxt_ = tcp.seq;
    }
    accept(tcp.seq, wire_len, std::move(data));
    drain();
  }

  void accept(std::uint32_t seq, std::uint32_t wire_len, Bytes data) {
    const auto delta = static_cast<std::int32_t>(seq - rcv_nxt_);
    if (delta < 0) {
      // Overlap with delivered bytes: the delivered copy stands; append only
      // the genuinely new tail.
      const auto trim = static_cast<std::uint32_t>(-delta);
      if (trim >= wire_len || trim >= data.size()) return;
      stream_.insert(stream_.end(), data.begin() + trim, data.end());
      rcv_nxt_ = seq + wire_len;
    } else if (delta == 0) {
      stream_.insert(stream_.end(), data.begin(), data.end());
      rcv_nxt_ = seq + wire_len;
    } else if (delta <= 65535) {
      future_.emplace(seq, Pending{wire_len, std::move(data)});  // first wins
    }
    // Beyond the receive window: dropped.
  }

  void drain() {
    for (auto it = future_.find(rcv_nxt_); it != future_.end();
         it = future_.find(rcv_nxt_)) {
      stream_.insert(stream_.end(), it->second.data.begin(),
                     it->second.data.end());
      rcv_nxt_ += it->second.wire_len;
      future_.erase(it);
    }
  }

  netsim::EventLoop& loop_;
  stack::IpReassembler reassembler_;  // endpoint default: last-wins
  bool synced_ = false;
  std::uint32_t rcv_nxt_ = 0;
  Bytes stream_;
  std::map<std::uint32_t, Pending> future_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Catalog.

std::vector<ProbeScript> ambiguity_probe_catalog(int hops_before_middlebox) {
  const Bytes P = bytes_of(kProbePayload);
  auto slice = [&P](std::size_t from, std::size_t to) {
    return Bytes(P.begin() + static_cast<std::ptrdiff_t>(from),
                 P.begin() + static_cast<std::ptrdiff_t>(to));
  };

  std::vector<ProbeScript> out;

  // -- tcp-overlap: conflicting data in overlapping TCP segments. ----------
  // u1: garbage claims [17, 49) first, then the good bytes retransmit the
  //     same range. First-wins keeps the garbage; last-wins recovers.
  out.push_back(script("tcp-overlap", 0,
                       {seg(0, slice(0, kRequestLineEnd)),
                        seg(17, garbage(32)),
                        seg(17, slice(kRequestLineEnd, P.size()))}));
  // u2: the good prefix lands first (keyword incomplete), a garbage segment
  //     then rewrites the middle, and the good tail completes the stream.
  //     Last-wins destroys the keyword it never finished seeing; first-wins
  //     keeps it.
  out.push_back(script("tcp-overlap", 1,
                       {seg(0, slice(0, 40)), seg(17, garbage(23)),
                        seg(40, slice(40, P.size()))}));
  // u3: a benign subset overlap — [17, 30) arrives, then a superset segment
  //     re-sends [17, 49). Only resolvers that honor overlap tails complete
  //     the keyword.
  out.push_back(script("tcp-overlap", 2,
                       {seg(0, slice(0, kRequestLineEnd)),
                        seg(17, slice(kRequestLineEnd, 30)),
                        seg(17, slice(kRequestLineEnd, P.size()))}));

  // -- frag-overlap: conflicting data in overlapping IP fragments. ---------
  // The full IP payload is the one good data segment (TCP header + P,
  // 20 + 49 = 69 bytes); fragments slice it. The overlap window is
  // [40, 48) — fragment words 5..6 — which cuts through the keyword. The
  // TCP checksum covers the good payload, so any reassembly that keeps
  // garbage yields a checksum-invalid segment (validating classifiers skip
  // it; the server discards it).
  netsim::TcpHeader data_hdr = base_tcp();
  data_hdr.seq = kDefaultIsn + 1;
  data_hdr.ack = 1;
  data_hdr.flags = netsim::TcpFlags::kAck;
  const Bytes F = netsim::serialize_tcp(data_hdr, BytesView(P),
                                        kProbeClientIp, kProbeServerIp);
  Bytes F_bad = F;
  std::fill(F_bad.begin() + 40, F_bad.begin() + 48, 'X');
  auto fslice = [](const Bytes& src, std::size_t from, std::size_t to,
                   std::uint16_t off_words, bool mf) {
    return frag(off_words, mf,
                Bytes(src.begin() + static_cast<std::ptrdiff_t>(from),
                      src.begin() + static_cast<std::ptrdiff_t>(to)));
  };
  // v0: clean two-fragment split (does the path reassemble at all?).
  out.push_back(script("frag-overlap", 0,
                       {fslice(F, 0, 48, 0, true), fslice(F, 48, 69, 6, false)}));
  // v1: garbage tail arrives first, good fragment re-covers [40, 69).
  out.push_back(script("frag-overlap", 1,
                       {fslice(F_bad, 0, 48, 0, true),
                        fslice(F, 40, 69, 5, false)}));
  // v2: equal-offset duel — garbage then good at word 5 (tie-break probe).
  out.push_back(script("frag-overlap", 2,
                       {fslice(F, 0, 40, 0, true), frag(5, true, garbage(8)),
                        fslice(F, 40, 48, 5, true),
                        fslice(F, 48, 69, 6, false)}));
  // v3: good tail first, garbage-bearing head second (left-trim probe).
  out.push_back(script("frag-overlap", 3,
                       {fslice(F, 40, 69, 5, false),
                        fslice(F_bad, 0, 48, 0, true)}));

  // -- ttl-insert: a garbage insertion that dies between the classifier and
  //    the server (lib·erate's TTL-limited insertion, aimed by path depth).
  const auto insert_ttl =
      static_cast<std::uint8_t>(hops_before_middlebox + 1);
  ProbePacket t_insert = seg(17, garbage(32));
  t_insert.ttl = insert_ttl;
  out.push_back(script("ttl-insert", 0,
                       {seg(0, slice(0, kRequestLineEnd)), t_insert,
                        seg(17, slice(kRequestLineEnd, P.size()))}));
  // Control: TTL=1 dies at the very first hop — nobody sees the garbage.
  ProbePacket t_control = seg(17, garbage(32));
  t_control.ttl = 1;
  out.push_back(script("ttl-insert", 1,
                       {seg(0, slice(0, kRequestLineEnd)), t_control,
                        seg(17, slice(kRequestLineEnd, P.size()))}));

  // -- checksum-shadow: garbage with an invalid TCP checksum shadows the
  //    range, then the good bytes arrive with a valid one.
  ProbePacket shadow = seg(17, garbage(32));
  shadow.corrupt_tcp_checksum = true;
  out.push_back(script("checksum-shadow", 0,
                       {seg(0, slice(0, kRequestLineEnd)), shadow,
                        seg(17, slice(kRequestLineEnd, P.size()))}));

  // -- ip-option: the whole payload rides one segment carrying a deprecated
  //    (o1) or malformed (o2) IP option.
  ProbePacket opt_dep = seg(0, P);
  opt_dep.ip_option_kind = 136;
  out.push_back(script("ip-option", 0, {opt_dep}));
  ProbePacket opt_bad = seg(0, P);
  opt_bad.ip_option_kind = kInvalidIpOptionKind;
  out.push_back(script("ip-option", 1, {opt_bad}));

  // -- out-of-window: the keyword rides a segment far beyond any plausible
  //    receive window. Only classifiers that ignore sequence plausibility
  //    (per-packet engines) see it; the server never does.
  out.push_back(script(
      "out-of-window", 0,
      {seg(0, bytes_of("GET /f HTTP/1.1\r\nHost: filler.invalid\r\n\r\n")),
       seg(200000, bytes_of(kDecoyKeyword))}));

  // -- urgent-pointer: g1 inserts one out-of-band byte inside the keyword
  //    (strippers recover it, inliners choke); g2 marks a *real* keyword
  //    byte urgent (inliners keep it, strippers lose it).
  Bytes with_oob = slice(0, 30);
  with_oob.push_back('Z');
  Bytes tail = slice(30, P.size());
  with_oob.insert(with_oob.end(), tail.begin(), tail.end());
  ProbePacket urg1 = seg(0, std::move(with_oob));
  urg1.tcp_flags = netsim::TcpFlags::kAck | netsim::TcpFlags::kUrg;
  urg1.urgent_ptr = 31;  // byte index 30 = the inserted 'Z'
  out.push_back(script("urgent-pointer", 0, {urg1}));
  ProbePacket urg2 = seg(0, P);
  urg2.tcp_flags = netsim::TcpFlags::kAck | netsim::TcpFlags::kUrg;
  urg2.urgent_ptr = 30;  // byte index 29 = a keyword byte
  out.push_back(script("urgent-pointer", 1, {urg2}));

  // -- wrap-span: the keyword straddles a sequence-number wraparound. ISN is
  //    chosen so the split segments place the wrap inside the second one;
  //    neither segment alone contains the whole keyword.
  out.push_back(script("wrap-span", 0,
                       {seg(0, slice(0, 30)), seg(30, slice(30, P.size()))},
                       /*isn=*/0xFFFFFFFFu - 34));

  // -- inspection-limit: benign filler packets ahead of the payload push it
  //    past per-flow inspection budgets. L1 = 7th data packet, L2 = 10th.
  auto filler_run = [&slice](std::size_t count) {
    std::vector<ProbePacket> pkts;
    for (std::size_t i = 0; i < count; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "pad%05zu", i);
      pkts.push_back(seg(static_cast<std::uint32_t>(i * 8), bytes_of(buf)));
    }
    pkts.push_back(seg(static_cast<std::uint32_t>(count * 8),
                       Bytes(slice(0, kProbePayload.size()))));
    return pkts;
  };
  out.push_back(script("inspection-limit", 0, filler_run(6)));
  out.push_back(script("inspection-limit", 1, filler_run(9)));

  // -- no-syn: data on a flow whose SYN the classifier never saw.
  out.push_back(script("no-syn", 0, {seg(0, P)}, kDefaultIsn,
                       /*send_syn=*/false));

  return out;
}

// ---------------------------------------------------------------------------
// Runner.

ProbeObservation run_probe_script(dpi::Environment& env,
                                  const ProbeScript& script) {
  ServerSink server(env.loop);
  NullHost client;
  env.net.attach_client(&client);
  env.net.attach_server(&server);
  for (Bytes& pkt : build_wire_packets(script)) {
    env.net.send_from_client(std::move(pkt));
    env.loop.run_until_idle();
  }
  env.net.attach_client(nullptr);
  env.net.attach_server(nullptr);

  ProbeObservation obs;
  obs.server_intact = server.keyword_seen();
  if (env.dpi != nullptr) {
    const netsim::FiveTuple probe = probe_tuple();
    for (const dpi::ClassificationEvent& ev : env.dpi->engine().log()) {
      if (ev.flow == probe && ev.traffic_class == kDecoyClass) {
        obs.dpi_classified = true;
        break;
      }
    }
  }
  return obs;
}

AmbiguityProbeResult probe_ambiguity(const EnvFactory& factory,
                                     const AmbiguityProbeOptions& options) {
  AmbiguityProbeResult result;
  std::unique_ptr<dpi::Environment> pilot = factory(options.seed);
  if (pilot == nullptr) return result;
  const std::vector<ProbeScript> catalog =
      ambiguity_probe_catalog(pilot->hops_before_middlebox);
  std::vector<ProbeObservation> obs(catalog.size());

  if (options.workers > 1) {
    ThreadPool pool(options.workers);
    std::vector<std::future<void>> done;
    done.reserve(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      done.push_back(pool.submit([&factory, &catalog, &obs, &options, i] {
        std::unique_ptr<dpi::Environment> env = factory(options.seed);
        if (env != nullptr) obs[i] = run_probe_script(*env, catalog[i]);
      }));
    }
    for (auto& f : done) f.get();
  } else {
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      std::unique_ptr<dpi::Environment> env =
          i == 0 ? std::move(pilot) : factory(options.seed);
      if (env != nullptr) obs[i] = run_probe_script(*env, catalog[i]);
    }
  }

  // Fold the observation bits — a pure function of (catalog, obs), so the
  // digest is identical across worker counts and match backends.
  std::map<std::string, DimensionResult> dims;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    DimensionResult& r = dims[catalog[i].dimension];
    r.dimension = catalog[i].dimension;
    if (obs[i].dpi_classified) r.bits |= 1u << (2 * catalog[i].variant);
    if (obs[i].server_intact) r.bits |= 1u << (2 * catalog[i].variant + 1);
    r.variant_count = std::max(r.variant_count, catalog[i].variant + 1);
  }
  for (auto& [name, r] : dims) result.digest.add(std::move(r));
  result.probe_flows = catalog.size();
  return result;
}

AmbiguityProbeResult probe_environment(const std::string& name,
                                       const AmbiguityProbeOptions& options) {
  return probe_ambiguity(
      [&name](std::uint64_t seed) { return dpi::make_environment(name, seed); },
      options);
}

}  // namespace liberate::fingerprint
