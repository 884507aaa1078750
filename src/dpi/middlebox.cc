#include "dpi/middlebox.h"

#include <algorithm>

#include "dpi/http_parser.h"
#include "obs/obs.h"
#include "util/strings.h"

namespace liberate::dpi {

using netsim::Direction;
using netsim::ElementIo;
using netsim::FiveTuple;
using netsim::Ipv4Header;
using netsim::PacketView;
using netsim::TcpFlags;
using netsim::TcpHeader;

// ---------------------------------------------------------------------------
// DpiMiddlebox
// ---------------------------------------------------------------------------

void DpiMiddlebox::process(Bytes datagram, Direction dir, ElementIo& io) {
  auto parsed = netsim::parse_packet(datagram);
  if (!parsed.ok()) {
    io.forward(std::move(datagram));
    return;
  }
  const PacketView& pkt = parsed.value();
  const bool c2s = dir == Direction::kClientToServer;

  // Replay-server whitelisting (§4.2 countermeasure): traffic to known
  // measurement servers passes untouched, hiding the policy from detection.
  if (!config_.whitelisted_server_ips.empty()) {
    std::uint32_t server_addr = c2s ? pkt.ip.dst : pkt.ip.src;
    if (config_.whitelisted_server_ips.contains(server_addr)) {
      io.forward(std::move(datagram));
      return;
    }
  }

  // Endpoint escalation blocklist (GFC: after two blocked flows, everything
  // to that server:port is killed — even innocuous content).
  if (config_.endpoint_escalation && pkt.is_tcp()) {
    FiveTuple key = c2s ? pkt.five_tuple() : pkt.five_tuple().reversed();
    EndpointKey ep{key.dst_ip, key.dst_port};
    auto it = endpoint_blocklist_.find(ep);
    if (it != endpoint_blocklist_.end()) {
      if (io.now() < it->second) {
        LIBERATE_PROV_NOTE_PKT(io.now(), datagram, "policy-drop",
                               obs::fv("reason", "endpoint-escalation"));
        inject_rsts(pkt, dir, io, 3 + static_cast<int>(rng_.below(3)),
                    /*packet_forwarded=*/false, 0);
        ++packets_dropped_;
        LIBERATE_COUNTER_ADD("dpi.middlebox_packets_dropped", 1);
        return;
      }
      endpoint_blocklist_.erase(it);
      endpoint_hits_.erase(ep);
    }
  }

  Inspection insp = engine_.inspect(pkt, dir, io.now());

  // Flows previously subjected to a block action stay dead.
  if (insp.flow_blocked && !insp.newly_classified) {
    LIBERATE_PROV_NOTE_PKT(io.now(), datagram, "policy-drop",
                           obs::fv("reason", "flow-blocked"));
    if (pkt.is_tcp() && !pkt.tcp->rst()) {
      inject_rsts(pkt, dir, io, 1, /*packet_forwarded=*/false, 0);
    }
    ++packets_dropped_;
    LIBERATE_COUNTER_ADD("dpi.middlebox_packets_dropped", 1);
    return;
  }

  // Policy action for the active class.
  const PolicyAction* action = nullptr;
  if (insp.traffic_class) {
    auto it = config_.actions.find(*insp.traffic_class);
    if (it != config_.actions.end()) action = &it->second;
  }

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
  // The verdict record ties the classification to the policy applied and to
  // the lineage node of the packet that triggered it (note_pkt digests the
  // datagram before any branch moves it).
  if (insp.newly_classified && insp.traffic_class) {
    const char* act = "forward";
    if (action != nullptr) {
      if (action->block) {
        act = "block";
      } else if (action->throttle_bytes_per_sec) {
        act = "throttle";
      } else if (action->zero_rate) {
        act = "zero-rate";
      }
    }
    LIBERATE_PROV_NOTE_PKT(
        io.now(), datagram, "verdict",
        obs::fv("class", *insp.traffic_class),
        obs::fv("rule", insp.rule != nullptr ? insp.rule->name.c_str() : ""),
        obs::fv("action", act));
  }
#endif

  if (action != nullptr && action->block && insp.newly_classified) {
    if (insp.has_flow) {
      engine_.mark_blocked(insp.flow);
      if (config_.endpoint_escalation) {
        EndpointKey ep{insp.flow.dst_ip, insp.flow.dst_port};
        if (++endpoint_hits_[ep] >= config_.escalation_threshold) {
          endpoint_blocklist_[ep] = io.now() + config_.escalation_duration;
        }
      }
    }
    bool drop = action->drop_matching_packet;
    if (!drop) io.forward(Bytes(datagram));
    apply_block(pkt, dir, io, *action, drop);
    if (drop) {
      ++packets_dropped_;
      LIBERATE_COUNTER_ADD("dpi.middlebox_packets_dropped", 1);
    }
    return;
  }

  // Accounting: zero-rated classes don't count against the user's quota.
  if (action != nullptr && action->zero_rate) {
    zero_rated_bytes_ += datagram.size();
    LIBERATE_COUNTER_ADD("dpi.zero_rated_bytes", datagram.size());
  } else {
    usage_counter_bytes_ += datagram.size();
    LIBERATE_COUNTER_ADD("dpi.usage_counted_bytes", datagram.size());
  }

  if (action != nullptr && action->throttle_bytes_per_sec) {
    if (!pace_[*insp.traffic_class].forward(
            std::move(datagram), *action->throttle_bytes_per_sec,
            action->throttle_queue_bytes, io)) {
      ++packets_dropped_;  // shaping queue overflow
      LIBERATE_COUNTER_ADD("dpi.middlebox_packets_dropped", 1);
    }
    return;
  }

  io.forward(std::move(datagram));
}

bool DpiMiddlebox::treats(const FiveTuple& flow, netsim::TimePoint now) {
  auto klass = engine_.active_class_now(flow, now);
  if (!klass) return false;
  auto it = config_.actions.find(*klass);
  if (it == config_.actions.end()) return false;
  const PolicyAction& a = it->second;
  return a.block || a.zero_rate || a.throttle_bytes_per_sec.has_value();
}

void DpiMiddlebox::apply_block(const PacketView& pkt, Direction dir,
                               ElementIo& io, const PolicyAction& action,
                               bool drop_packet) {
  std::size_t extra_client_bytes = 0;
  if (action.send_403 && pkt.is_tcp() && dir == Direction::kClientToServer) {
    // Unsolicited 403 response impersonating the server (Iran, §6.6).
    static const std::string k403 =
        "HTTP/1.1 403 Forbidden\r\nContent-Type: text/html\r\n\r\n"
        "<html><body>Forbidden</body></html>";
    TcpHeader h;
    h.src_port = pkt.tcp->dst_port;
    h.dst_port = pkt.tcp->src_port;
    h.seq = pkt.tcp->ack;  // the client's current rcv_nxt
    h.ack = pkt.tcp->seq +
            static_cast<std::uint32_t>(drop_packet ? 0 : pkt.tcp->payload.size());
    h.flags = TcpFlags::kPsh | TcpFlags::kAck;
    Ipv4Header ip;
    ip.src = pkt.ip.dst;
    ip.dst = pkt.ip.src;
    io.send_back(make_tcp_datagram(ip, h, to_bytes(k403)));
    extra_client_bytes = k403.size();
  }
  int count = action.rst_count_min +
              static_cast<int>(rng_.below(static_cast<std::uint64_t>(
                  action.rst_count_max - action.rst_count_min + 1)));
  inject_rsts(pkt, dir, io, count, /*packet_forwarded=*/!drop_packet,
              extra_client_bytes);
}

void DpiMiddlebox::inject_rsts(const PacketView& pkt, Direction dir,
                               ElementIo& io, int count, bool packet_forwarded,
                               std::size_t extra_client_bytes) {
  if (!pkt.is_tcp()) return;
  const netsim::TcpView& tcp = *pkt.tcp;
  const bool c2s = dir == Direction::kClientToServer;

  for (int i = 0; i < count; ++i) {
    // Toward the packet's destination (same direction as the packet).
    {
      TcpHeader h;
      h.src_port = tcp.src_port;
      h.dst_port = tcp.dst_port;
      h.seq = tcp.seq + static_cast<std::uint32_t>(
                            packet_forwarded ? tcp.payload.size() : 0) +
              (tcp.syn() ? 1 : 0);
      h.ack = tcp.ack;
      h.flags = TcpFlags::kRst | TcpFlags::kAck;
      Ipv4Header ip;
      ip.src = pkt.ip.src;
      ip.dst = pkt.ip.dst;
      io.forward(make_tcp_datagram(ip, h, {}));
    }
    // Toward the packet's source, impersonating the destination.
    {
      TcpHeader h;
      h.src_port = tcp.dst_port;
      h.dst_port = tcp.src_port;
      h.seq = tcp.ack + static_cast<std::uint32_t>(c2s ? extra_client_bytes : 0);
      h.ack = tcp.seq + static_cast<std::uint32_t>(
                            packet_forwarded ? tcp.payload.size() : 0);
      h.flags = TcpFlags::kRst | TcpFlags::kAck;
      Ipv4Header ip;
      ip.src = pkt.ip.dst;
      ip.dst = pkt.ip.src;
      io.send_back(make_tcp_datagram(ip, h, {}));
    }
    rsts_injected_ += 2;
    LIBERATE_COUNTER_ADD("dpi.rsts_injected", 2);
  }
}

// ---------------------------------------------------------------------------
// ConntrackFilter
// ---------------------------------------------------------------------------

void ConntrackFilter::process(Bytes datagram, Direction dir, ElementIo& io) {
  auto parsed = netsim::parse_packet(datagram);
  if (!parsed.ok()) {
    ++dropped_;
    LIBERATE_COUNTER_ADD("dpi.conntrack_drops", 1);
    return;
  }
  const PacketView& pkt = parsed.value();
  netsim::AnomalySet anomalies = netsim::anomalies_of(pkt);
  if (policy_.rejects(anomalies)) {
    ++dropped_;
    LIBERATE_COUNTER_ADD("dpi.conntrack_drops", 1);
    return;
  }

  if (validate_seq_ && pkt.is_tcp() && pkt.ip.fragment_offset_words == 0) {
    const bool c2s = dir == Direction::kClientToServer;
    FiveTuple key = c2s ? pkt.five_tuple() : pkt.five_tuple().reversed();
    const int d = c2s ? 0 : 1;
    SeqState& st = flows_[key];
    const netsim::TcpView& tcp = *pkt.tcp;
    if (tcp.syn()) {
      st.init[d] = true;
      st.next[d] = tcp.seq + 1;
    } else if (st.init[d] && !tcp.payload.empty()) {
      std::int32_t delta = static_cast<std::int32_t>(tcp.seq - st.next[d]);
      if (delta < -65536 || delta > 65536) {
        ++dropped_;  // out-of-window: stateful firewall eats it
        LIBERATE_COUNTER_ADD("dpi.conntrack_drops", 1);
        return;
      }
      std::uint32_t end =
          tcp.seq + static_cast<std::uint32_t>(tcp.payload.size());
      if (static_cast<std::int32_t>(end - st.next[d]) > 0) st.next[d] = end;
    }
  }
  io.forward(std::move(datagram));
}

// ---------------------------------------------------------------------------
// ReassemblyElement
// ---------------------------------------------------------------------------

void ReassemblyElement::process(Bytes datagram, Direction dir, ElementIo& io) {
  const int d = dir == Direction::kClientToServer ? 0 : 1;
  auto whole = reassembler_[d].push(datagram, io.now());
  reassembler_[d].expire(io.now());
  if (whole) io.forward(std::move(*whole));
}

// ---------------------------------------------------------------------------
// TransparentHttpProxy
// ---------------------------------------------------------------------------

void TransparentHttpProxy::process(Bytes datagram, Direction dir,
                                   ElementIo& io) {
  auto parsed = netsim::parse_packet(datagram);
  if (!parsed.ok()) {
    ++absorbed_;
    return;  // proxy path: malformed garbage goes nowhere
  }
  const PacketView& pkt = parsed.value();
  const bool c2s = dir == Direction::kClientToServer;

  // Only port-`config_.port` TCP traffic is proxied; everything else passes
  // (AT&T did not inspect TLS/443 at the time of the study).
  if (!pkt.is_tcp() || pkt.ip.is_fragment()) {
    if (pkt.ip.is_fragment() && pkt.ip.protocol ==
            static_cast<std::uint8_t>(netsim::IpProto::kTcp)) {
      // TCP fragments destined to the proxied port are absorbed: a
      // terminating proxy reassembles or discards, it never forwards raw
      // fragments. (We can't read the port from a non-first fragment, so be
      // conservative and absorb TCP fragments.)
      ++absorbed_;
      return;
    }
    io.forward(std::move(datagram));
    return;
  }
  FiveTuple key = c2s ? pkt.five_tuple() : pkt.five_tuple().reversed();
  if (key.dst_port != config_.port) {
    io.forward(std::move(datagram));
    return;
  }

  // A terminating proxy validates everything: crafted invalid packets die
  // here.
  netsim::AnomalySet anomalies = netsim::anomalies_of(pkt);
  if (netsim::ValidationPolicy::strict().rejects(anomalies)) {
    ++absorbed_;
    return;
  }

  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    if (c2s && pkt.tcp->syn() && !pkt.tcp->ack_flag()) {
      Session s;
      s.client_ip = pkt.ip.src;
      s.server_ip = pkt.ip.dst;
      s.client_port = pkt.tcp->src_port;
      s.server_port = pkt.tcp->dst_port;
      s.c_rcv_nxt = pkt.tcp->seq + 1;
      s.c_snd_seq = 710000;  // proxy ISS toward client
      s.s_snd_seq = 910000;  // proxy ISS toward server
      auto [sit, ok] = sessions_.emplace(key, std::move(s));
      (void)ok;
      Session& sess = sit->second;
      ++sessions_opened_;
      LIBERATE_COUNTER_ADD("dpi.proxy_sessions_opened", 1);
      // SYN|ACK to the client immediately; SYN toward the real server.
      send_to_client(sess, TcpFlags::kSyn | TcpFlags::kAck, {}, io,
                     Direction::kClientToServer);
      sess.c_snd_seq += 1;
      sess.client_established = true;
      send_to_server(sess, TcpFlags::kSyn, {}, io,
                     Direction::kClientToServer);
      sess.s_snd_seq += 1;
      sess.server_syn_sent = true;
      return;
    }
    // Unknown session traffic: pass through (e.g. stray RSTs).
    io.forward(std::move(datagram));
    return;
  }

  Session& s = it->second;
  if (s.dead) {
    ++absorbed_;
    return;
  }
  if (c2s) {
    handle_client_packet(s, pkt, io);
  } else {
    handle_server_packet(s, pkt, io);
  }
}

void TransparentHttpProxy::handle_client_packet(Session& s,
                                                const PacketView& pkt,
                                                ElementIo& io) {
  constexpr Direction kDir = Direction::kClientToServer;
  const netsim::TcpView& tcp = *pkt.tcp;
  if (tcp.rst()) {
    send_to_server(s, TcpFlags::kRst | TcpFlags::kAck, {}, io, kDir);
    s.dead = true;
    return;
  }
  if (!tcp.payload.empty()) {
    if (tcp.seq != s.c_rcv_nxt) {
      // The proxy's own stack buffers/discards; crafted or reordered data is
      // simply ACKed at the current edge. (Real data is in order because the
      // client stack retransmits.)
      if (static_cast<std::int32_t>(tcp.seq - s.c_rcv_nxt) < 0) {
        send_to_client(s, TcpFlags::kAck, {}, io, kDir);
      }
      ++absorbed_;
      return;
    }
    s.c_rcv_nxt += static_cast<std::uint32_t>(tcp.payload.size());
    send_to_client(s, TcpFlags::kAck, {}, io, kDir);

    // Classify the request head.
    if (s.request_head.size() < 4096) {
      s.request_head.insert(s.request_head.end(), tcp.payload.begin(),
                            tcp.payload.end());
      // A terminating proxy parses the request line: the stream must BEGIN
      // with a method token, and the configured keywords must appear. (The
      // anchor is what the bilateral dummy-prepend exploit targets, §7.)
      bool anchored = looks_like_http_request(BytesView(s.request_head));
      bool all = anchored;
      std::string head = to_string(BytesView(s.request_head));
      for (const auto& kw : config_.request_keywords) {
        if (!all) break;
        if (ifind(head, kw) == std::string_view::npos) all = false;
      }
      s.is_http = all;
    }
    relay_to_server(s, tcp.payload, io, kDir);
  }
  if (tcp.fin() && !s.client_fin_seen) {
    s.client_fin_seen = true;
    s.c_rcv_nxt += 1;
    send_to_client(s, TcpFlags::kAck, {}, io, kDir);
    if (s.server_established && s.pending_to_server.empty()) {
      send_to_server(s, TcpFlags::kFin | TcpFlags::kAck, {}, io, kDir);
      s.s_snd_seq += 1;
      s.client_fin_relayed = true;
    }
  }
}

void TransparentHttpProxy::handle_server_packet(Session& s,
                                                const PacketView& pkt,
                                                ElementIo& io) {
  constexpr Direction kDir = Direction::kServerToClient;
  const netsim::TcpView& tcp = *pkt.tcp;
  if (tcp.rst()) {
    send_to_client(s, TcpFlags::kRst | TcpFlags::kAck, {}, io, kDir);
    s.dead = true;
    return;
  }
  if (tcp.syn() && tcp.ack_flag() && !s.server_established) {
    s.s_rcv_nxt = tcp.seq + 1;
    s.server_established = true;
    send_to_server(s, TcpFlags::kAck, {}, io, kDir);
    if (!s.pending_to_server.empty()) {
      Bytes pending = std::move(s.pending_to_server);
      s.pending_to_server.clear();
      relay_to_server(s, pending, io, kDir);
    }
    if (s.client_fin_seen && !s.client_fin_relayed) {
      send_to_server(s, TcpFlags::kFin | TcpFlags::kAck, {}, io, kDir);
      s.s_snd_seq += 1;
      s.client_fin_relayed = true;
    }
    return;
  }
  if (!tcp.payload.empty()) {
    if (tcp.seq != s.s_rcv_nxt) {
      if (static_cast<std::int32_t>(tcp.seq - s.s_rcv_nxt) < 0) {
        send_to_server(s, TcpFlags::kAck, {}, io, kDir);
      }
      ++absorbed_;
      return;
    }
    s.s_rcv_nxt += static_cast<std::uint32_t>(tcp.payload.size());
    send_to_server(s, TcpFlags::kAck, {}, io, kDir);

    // Classify the response head (Content-Type: video -> throttle).
    if (s.response_head.size() < 4096) {
      s.response_head.insert(s.response_head.end(), tcp.payload.begin(),
                             tcp.payload.end());
      if (s.is_http && !s.throttled) {
        auto resp = parse_http_response(BytesView(s.response_head));
        if (resp && resp->content_type() &&
            ifind(*resp->content_type(), config_.content_type_keyword) !=
                std::string_view::npos) {
          s.throttled = true;
          ++throttled_sessions_;
          LIBERATE_COUNTER_ADD("dpi.proxy_sessions_throttled", 1);
        }
      }
    }
    relay_to_client(s, tcp.payload, io, kDir);
  }
  if (tcp.fin() && !s.server_fin_seen) {
    s.server_fin_seen = true;
    s.s_rcv_nxt += 1;
    send_to_server(s, TcpFlags::kAck, {}, io, kDir);
    send_to_client(s, TcpFlags::kFin | TcpFlags::kAck, {}, io, kDir);
    s.c_snd_seq += 1;
  }
}

void TransparentHttpProxy::relay_to_server(Session& s, BytesView data,
                                           ElementIo& io,
                                           Direction io_dir) {
  if (!s.server_established) {
    s.pending_to_server.insert(s.pending_to_server.end(), data.begin(),
                               data.end());
    return;
  }
  for (std::size_t off = 0; off < data.size(); off += config_.mss) {
    std::size_t n = std::min(config_.mss, data.size() - off);
    send_to_server(s, TcpFlags::kAck | TcpFlags::kPsh, data.subspan(off, n),
                   io, io_dir);
    s.s_snd_seq += static_cast<std::uint32_t>(n);
  }
}

void TransparentHttpProxy::relay_to_client(Session& s, BytesView data,
                                           ElementIo& io,
                                           Direction io_dir) {
  const netsim::TimePoint now = io.now();
  if (s.busy_until < now) s.busy_until = now;
  for (std::size_t off = 0; off < data.size(); off += config_.mss) {
    std::size_t n = std::min(config_.mss, data.size() - off);
    netsim::Duration delay = 0;
    if (s.throttled) {
      netsim::Duration transmit = static_cast<netsim::Duration>(
          static_cast<double>(n) / config_.throttle_bytes_per_sec * 1e6);
      s.busy_until += transmit;
      delay = s.busy_until - now;
    }
    send_to_client(s, TcpFlags::kAck | TcpFlags::kPsh, data.subspan(off, n),
                   io, io_dir, delay);
    s.c_snd_seq += static_cast<std::uint32_t>(n);
  }
}

void TransparentHttpProxy::send_to_client(Session& s, std::uint8_t flags,
                                          BytesView payload, ElementIo& io,
                                          Direction io_dir,
                                          netsim::Duration delay) {
  TcpHeader h;
  h.src_port = s.server_port;
  h.dst_port = s.client_port;
  h.seq = s.c_snd_seq;
  h.ack = s.c_rcv_nxt;
  h.flags = flags;
  Ipv4Header ip;
  ip.src = s.server_ip;
  ip.dst = s.client_ip;
  Bytes dgram = make_tcp_datagram(ip, h, payload);
  // Toward the client = backward for a c2s packet, forward for an s2c one.
  if (io_dir == Direction::kClientToServer) {
    if (delay == 0) {
      io.send_back(std::move(dgram));
    } else {
      io.send_back_after(delay, std::move(dgram));
    }
  } else {
    if (delay == 0) {
      io.forward(std::move(dgram));
    } else {
      io.forward_after(delay, std::move(dgram));
    }
  }
}

void TransparentHttpProxy::send_to_server(Session& s, std::uint8_t flags,
                                          BytesView payload, ElementIo& io,
                                          Direction io_dir) {
  TcpHeader h;
  h.src_port = s.client_port;
  h.dst_port = s.server_port;
  h.seq = s.s_snd_seq;
  h.ack = s.s_rcv_nxt;
  h.flags = flags;
  Ipv4Header ip;
  ip.src = s.client_ip;
  ip.dst = s.server_ip;
  Bytes dgram = make_tcp_datagram(ip, h, payload);
  if (io_dir == Direction::kClientToServer) {
    io.forward(std::move(dgram));
  } else {
    io.send_back(std::move(dgram));
  }
}

}  // namespace liberate::dpi
