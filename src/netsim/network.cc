#include "netsim/network.h"

#include "netsim/checksum.h"

#include "obs/obs.h"
#include "util/strings.h"

namespace liberate::netsim {

void ElementIo::forward(Bytes datagram) {
  // walk() index convention: C->S passes the index of the next element; S->C
  // passes one past it (so elements_[index-1] is visited next).
  std::size_t next = dir_ == Direction::kClientToServer ? index_ + 1 : index_;
  net_.walk(std::move(datagram), dir_, next);
}

void ElementIo::forward_after(Duration delay, Bytes datagram) {
  std::size_t next = dir_ == Direction::kClientToServer ? index_ + 1 : index_;
  Direction dir = dir_;
  Network* net = &net_;
  net_.loop_.schedule(delay, [net, dir, next, d = std::move(datagram)]() mutable {
    net->walk(std::move(d), dir, next);
  });
}

void ElementIo::send_back(Bytes datagram) {
  Direction back = opposite(dir_);
  std::size_t next = back == Direction::kClientToServer ? index_ + 1 : index_;
  net_.walk(std::move(datagram), back, next);
}

void ElementIo::send_back_after(Duration delay, Bytes datagram) {
  Direction back = opposite(dir_);
  std::size_t next = back == Direction::kClientToServer ? index_ + 1 : index_;
  Network* net = &net_;
  net_.loop_.schedule(delay, [net, back, next, d = std::move(datagram)]() mutable {
    net->walk(std::move(d), back, next);
  });
}

TimePoint ElementIo::now() const { return net_.loop_.now(); }
EventLoop& ElementIo::loop() const { return net_.loop_; }

void Network::send_from_client(Bytes datagram) {
  LIBERATE_COUNTER_ADD("netsim.packets_tx_client", 1);
  walk(std::move(datagram), Direction::kClientToServer, 0);
}

void Network::send_from_server(Bytes datagram) {
  LIBERATE_COUNTER_ADD("netsim.packets_tx_server", 1);
  walk(std::move(datagram), Direction::kServerToClient, elements_.size());
}

void Network::walk(Bytes datagram, Direction dir, std::size_t index) {
  // `index` convention: for C->S it is the index of the next element to
  // visit; elements_.size() means deliver to the server. For S->C it is one
  // past the next element (visit elements_[index-1]); 0 means deliver to the
  // client.
  if (dir == Direction::kClientToServer) {
    if (index >= elements_.size()) {
      loop_.schedule(hop_latency_,
                     [this, d = std::move(datagram), dir]() mutable {
                       deliver_to_endpoint(std::move(d), dir);
                     });
      return;
    }
    std::size_t i = index;
    loop_.schedule(hop_latency_,
                   [this, d = std::move(datagram), dir, i]() mutable {
                     ElementIo io(*this, i, dir);
                     elements_[i]->process(std::move(d), dir, io);
                   });
  } else {
    if (index == 0) {
      loop_.schedule(hop_latency_,
                     [this, d = std::move(datagram), dir]() mutable {
                       deliver_to_endpoint(std::move(d), dir);
                     });
      return;
    }
    std::size_t i = index - 1;
    loop_.schedule(hop_latency_,
                   [this, d = std::move(datagram), dir, i]() mutable {
                     ElementIo io(*this, i, dir);
                     elements_[i]->process(std::move(d), dir, io);
                   });
  }
}

void Network::deliver_to_endpoint(Bytes datagram, Direction dir) {
  HostIface* host = dir == Direction::kClientToServer ? server_ : client_;
  if (host != nullptr) {
    LIBERATE_COUNTER_ADD("netsim.packets_delivered", 1);
    host->receive(std::move(datagram));
  } else {
    LIBERATE_COUNTER_ADD("netsim.packets_dropped_no_endpoint", 1);
  }
}

void RouterHop::process(Bytes datagram, Direction dir, ElementIo& io) {
  (void)dir;
  auto parsed = parse_packet(datagram);
  if (!parsed.ok()) {  // unparseable garbage: drop
    LIBERATE_COUNTER_ADD("netsim.router_dropped_unparseable", 1);
    return;
  }

  const PacketView& pkt = parsed.value();

  // TTL handling first: a router decrements before deciding to forward.
  if (pkt.ip.ttl <= 1) {
    // Expired: drop, and send ICMP time-exceeded back to the source (unless
    // the expiring packet is itself ICMP, to avoid storms).
    LIBERATE_COUNTER_ADD("netsim.router_ttl_expired", 1);
    if (pkt.ip.protocol != static_cast<std::uint8_t>(IpProto::kIcmp)) {
      IcmpMessage msg;
      msg.type = IcmpType::kTimeExceeded;
      msg.code = 0;  // TTL exceeded in transit
      msg.body = icmp_original_datagram_excerpt(datagram);
      Ipv4Header ip;
      ip.src = address_;
      ip.dst = pkt.ip.src;
      ip.ttl = 64;
      io.send_back(make_icmp_datagram(ip, msg));
    }
    return;
  }

  AnomalySet anomalies = anomalies_of(pkt);
  if (has_anomaly(anomalies, Anomaly::kBadTcpChecksum) ||
      has_anomaly(anomalies, Anomaly::kBadUdpChecksum)) {
    LIBERATE_COUNTER_ADD("netsim.checksum_failures_seen", 1);
  }
  if (filter_.rejects(anomalies)) {  // silently filtered
    LIBERATE_COUNTER_ADD("netsim.router_dropped_filtered", 1);
    return;
  }

  Bytes out = std::move(datagram);
  set_ttl_in_place(out, static_cast<std::uint8_t>(pkt.ip.ttl - 1));

  if (fix_tcp_checksum_ && pkt.is_tcp() &&
      has_anomaly(anomalies, Anomaly::kBadTcpChecksum)) {
    // Normalizer: recompute the TCP checksum so the segment arrives valid
    // (GFC path behaviour, Table 3 note 4).
    LIBERATE_COUNTER_ADD("netsim.router_checksum_fixups", 1);
    auto reparsed = parse_ipv4(out);
    if (reparsed.ok()) {
      const Ipv4View& ip = reparsed.value();
      std::size_t seg_off = ip.header_length;
      if (out.size() >= seg_off + 18) {
        out[seg_off + 16] = 0;
        out[seg_off + 17] = 0;
        std::uint16_t cks = transport_checksum(
            ip.src, ip.dst, static_cast<std::uint8_t>(IpProto::kTcp),
            BytesView(out).subspan(seg_off));
        out[seg_off + 16] = static_cast<std::uint8_t>(cks >> 8);
        out[seg_off + 17] = static_cast<std::uint8_t>(cks);
      }
    }
  }

  io.forward(std::move(out));
}

std::string RouterHop::name() const {
  return "router:" + ip_to_string(address_);
}

void TapElement::process(Bytes datagram, Direction dir, ElementIo& io) {
  seen_.push_back(Seen{arena_.copy(BytesView(datagram)), dir, io.now()});
  io.forward(std::move(datagram));
}

std::size_t TapElement::count(Direction dir) const {
  std::size_t n = 0;
  for (const auto& s : seen_) {
    if (s.dir == dir) ++n;
  }
  return n;
}

bool ShapingQueue::forward(Bytes datagram, double bytes_per_second,
                           std::size_t limit, ElementIo& io) {
  const TimePoint now = io.now();
  if (busy_until < now) {
    busy_until = now;
    queued = 0;
  }
  const std::size_t sz = datagram.size();
  if (queued + sz > limit) return false;
  queued += sz;
  busy_until += static_cast<Duration>(static_cast<double>(sz) /
                                      bytes_per_second * 1e6);
  const Duration wait = busy_until - now;
  // Decrement the occupancy when this datagram leaves the queue.
  io.loop().schedule(wait, [this, sz]() { queued -= std::min(queued, sz); });
  io.forward_after(wait, std::move(datagram));
  return true;
}

void BandwidthElement::process(Bytes datagram, Direction dir, ElementIo& io) {
  ShapingQueue& q = queues_[dir == Direction::kClientToServer ? 0 : 1];
  if (!q.forward(std::move(datagram), rate_, queue_limit_, io)) {
    ++dropped_;
    LIBERATE_COUNTER_ADD("netsim.bandwidth_drops", 1);
  }
}

}  // namespace liberate::netsim
