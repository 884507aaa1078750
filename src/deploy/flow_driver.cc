#include "deploy/flow_driver.h"

#include <algorithm>

#include "netsim/checksum.h"
#include "netsim/network.h"
#include "netsim/packet.h"
#include "stack/ip_reassembly.h"

namespace liberate::deploy {

using netsim::FiveTuple;
using netsim::Ipv4Header;
using netsim::TcpFlags;
using netsim::TcpHeader;

namespace {

/// Crafted flows all start at ISN 0: the first payload byte is seq 1, so an
/// upload offset is just seq - 1. Inert injected packets with invalid
/// sequence numbers land outside [1, 1 + upload) and are rejected by the
/// server sink's window check, like a real receive window would.
constexpr std::uint32_t kIsn = 0;

/// Drain the event loop every this many crafted sends. Each in-flight
/// datagram holds ~hop-count scheduled events; batching keeps the queue
/// bounded at fleet scale without serializing every packet's full walk.
/// The batch must also stay under half the default in-path reassembly cap
/// (ReassemblyLimits::max_buffers = 1024): a fragmenting technique can leave
/// one delayed fragment in flight per send, and a reassembling middlebox
/// (e.g. the NormalizerElement countermeasure) evicts — i.e. silently drops
/// — whole uploads once its buffer cache overflows.
constexpr std::size_t kDrainBatch = 512;

struct RawTcp {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint8_t flags = 0;
  std::uint16_t payload_len = 0;
  // Transport segment bounds (for checksum validation).
  std::size_t tcp_off = 0;
  std::size_t tcp_len = 0;
};

/// Minimal, allocation-free TCP view: enough to key the flow and bound the
/// payload. Returns false for anything that is not a plausible IPv4 TCP
/// datagram (ICMP errors from TTL-limited inert packets, fragments, short
/// or lying headers).
bool parse_raw_tcp(const Bytes& b, RawTcp* out) {
  if (b.size() < 20) return false;
  if ((b[0] >> 4) != 4) return false;
  const std::size_t ihl = static_cast<std::size_t>(b[0] & 0x0F) * 4;
  if (ihl < 20 || b.size() < ihl + 20) return false;
  if (b[9] != 6) return false;
  const std::uint16_t frag = load_u16(b, 6);
  if ((frag & 0x1FFF) != 0) return false;  // non-first fragment: no ports
  std::size_t total = load_u16(b, 2);
  // Tolerate a lying Total Length (inert "longer than payload" rows) by
  // clamping to the buffer; the checksum check rejects corrupt payloads.
  total = std::min(total, b.size());
  if (total < ihl + 20) return false;
  const std::size_t doff =
      static_cast<std::size_t>(b[ihl + 12] >> 4) * 4;
  if (doff < 20 || ihl + doff > total) return false;
  out->src_ip = load_u32(b, 12);
  out->dst_ip = load_u32(b, 16);
  out->src_port = load_u16(b, ihl);
  out->dst_port = load_u16(b, ihl + 2);
  out->seq = load_u32(b, ihl + 4);
  out->flags = b[ihl + 13];
  out->payload_len = static_cast<std::uint16_t>(total - ihl - doff);
  out->tcp_off = ihl;
  out->tcp_len = total - ihl;
  return true;
}

}  // namespace

/// Server-side endpoint: accepts in-window, checksum-valid upload bytes per
/// flow and stamps completion. Everything else (inert injections, control
/// traffic, stragglers from torn-down waves) falls through silently.
struct PacketFlowDriver::ServerSink : netsim::HostIface {
  PacketFlowDriver* driver = nullptr;
  /// Fragmenting techniques (split/ip-fragmentation, reorder variants) chop
  /// the matching payload packet into pieces a real endpoint stack would
  /// reassemble — so this sink does too. Non-fragments pass straight through.
  /// The buffer cap is sized for the driver's batched sends: up to
  /// kDrainBatch flows can each have a delayed fragment in flight before the
  /// loop drains, and an evicted buffer would read as a lost upload.
  stack::IpReassembler reassembler{netsim::seconds(30),
                                   {.max_buffers = 2 * kDrainBatch}};

  void receive(Bytes datagram) override {
    const netsim::TimePoint now = driver->env_.loop.now();
    auto whole = reassembler.push(BytesView(datagram), now);
    reassembler.expire(now);
    if (!whole) return;  // buffered fragment: datagram still incomplete
    datagram = std::move(*whole);
    RawTcp t;
    if (!parse_raw_tcp(datagram, &t)) return;
    if (t.payload_len == 0) return;
    PacketFlowDriver& d = *driver;
    if (t.src_ip < d.config_.client_ip_base) return;
    const std::uint64_t serial =
        static_cast<std::uint64_t>(t.src_ip - d.config_.client_ip_base) *
            kPortsPerIp +
        (t.src_port - kFirstPort);
    if (serial < d.wave_first_ || serial - d.wave_first_ >= d.slots_.size()) {
      return;  // straggler from an earlier wave
    }
    const std::size_t idx = static_cast<std::size_t>(serial - d.wave_first_);
    const std::uint32_t expected = d.expected_bytes(idx);
    // Window check: reject invalid-seq inert packets a real stack would.
    const std::uint32_t off = t.seq - (kIsn + 1);
    if (off >= expected ||
        static_cast<std::uint64_t>(off) + t.payload_len > expected) {
      return;
    }
    // Checksum check: reject corrupted-checksum inert packets. A valid
    // transport checksum sums (with itself included) to zero.
    if (netsim::transport_checksum(
            t.src_ip, t.dst_ip, 6,
            BytesView(datagram.data() + t.tcp_off, t.tcp_len)) != 0) {
      return;
    }
    std::uint32_t& rx = d.slots_.at<2>(idx);
    std::uint8_t& flags = d.slots_.at<3>(idx);
    rx += t.payload_len;
    if ((flags & kCompleted) == 0 && rx >= expected) {
      flags |= kCompleted;
      d.slots_.at<1>(idx) =
          static_cast<std::uint64_t>(d.env_.loop.now());
    }
  }
};

/// Client-side endpoint: the only signal it needs is "did the path RST this
/// flow" (middlebox block action or endpoint escalation).
struct PacketFlowDriver::ClientSink : netsim::HostIface {
  PacketFlowDriver* driver = nullptr;

  void receive(Bytes datagram) override {
    RawTcp t;
    if (!parse_raw_tcp(datagram, &t)) return;
    if ((t.flags & TcpFlags::kRst) == 0) return;
    PacketFlowDriver& d = *driver;
    if (t.dst_ip < d.config_.client_ip_base) return;
    const std::uint64_t serial =
        static_cast<std::uint64_t>(t.dst_ip - d.config_.client_ip_base) *
            kPortsPerIp +
        (t.dst_port - kFirstPort);
    if (serial < d.wave_first_ || serial - d.wave_first_ >= d.slots_.size()) {
      return;
    }
    d.slots_.at<3>(static_cast<std::size_t>(serial - d.wave_first_)) |=
        kReset;
  }
};

PacketFlowDriver::PacketFlowDriver(dpi::Environment& env,
                                   core::EvasionShim& shim,
                                   PacketFlowConfig config)
    : env_(env), shim_(shim), config_(config) {
  client_sink_ = std::make_unique<ClientSink>();
  client_sink_->driver = this;
  server_sink_ = std::make_unique<ServerSink>();
  server_sink_->driver = this;
  env_.net.attach_client(client_sink_.get());
  env_.net.attach_server(server_sink_.get());
}

PacketFlowDriver::~PacketFlowDriver() {
  env_.net.attach_client(nullptr);
  env_.net.attach_server(nullptr);
}

FiveTuple PacketFlowDriver::tuple_of(std::uint64_t serial) const {
  FiveTuple t;
  t.src_ip =
      config_.client_ip_base + static_cast<std::uint32_t>(serial / kPortsPerIp);
  t.src_port = static_cast<std::uint16_t>(kFirstPort + serial % kPortsPerIp);
  t.dst_ip = config_.server_ip;
  t.dst_port = config_.server_port;
  t.protocol = 6;
  return t;
}

std::uint32_t PacketFlowDriver::expected_bytes(std::size_t index) const {
  const bool alt =
      wave_alt_every_ != 0 && (index + 1) % wave_alt_every_ == 0;
  return alt ? wave_alt_bytes_ : wave_total_bytes_;
}

WaveStats PacketFlowDriver::run_wave(std::size_t count, BytesView payload,
                                     BytesView alt_payload,
                                     std::size_t alt_every) {
  netsim::EventLoop& loop = env_.loop;
  slots_.clear();
  slots_.resize(count);
  wave_first_ = serial_;
  serial_ += count;
  wave_total_bytes_ = static_cast<std::uint32_t>(payload.size());
  wave_alt_bytes_ = static_cast<std::uint32_t>(alt_payload.size());
  wave_alt_every_ = alt_every;

  auto payload_of = [&](std::size_t index) -> BytesView {
    const bool alt = alt_every != 0 && (index + 1) % alt_every == 0;
    return alt ? alt_payload : payload;
  };
  auto send_segment = [&](std::size_t index, std::uint8_t flags,
                          std::uint32_t seq, BytesView data) {
    const FiveTuple t = tuple_of(wave_first_ + index);
    TcpHeader h;
    h.src_port = t.src_port;
    h.dst_port = t.dst_port;
    h.seq = seq;
    h.flags = flags;
    Ipv4Header ip;
    ip.src = t.src_ip;
    ip.dst = t.dst_ip;
    shim_.send(netsim::make_tcp_datagram(ip, h, data));
  };

  // Phase 1: open every flow. The SYN creates both the shim's and the
  // classifier's per-flow state; after this loop the whole wave is
  // concurrently tracked.
  std::size_t sent = 0;
  for (std::size_t i = 0; i < count; ++i) {
    slots_.at<0>(i) = static_cast<std::uint64_t>(loop.now());
    send_segment(i, TcpFlags::kSyn, kIsn, {});
    if (++sent % kDrainBatch == 0) loop.run_until_idle();
  }
  loop.run_until_idle();

  // Phase 2: payload segments, round-robin across the wave so every flow
  // is mid-stream at once (segment k of every flow goes out before segment
  // k+1 of any).
  const std::size_t seg = config_.segment_bytes == 0 ? 512
                                                     : config_.segment_bytes;
  const std::size_t max_len = std::max(payload.size(), alt_payload.size());
  const std::size_t max_segs = (max_len + seg - 1) / seg;
  for (std::size_t s = 0; s < max_segs; ++s) {
    const std::size_t off = s * seg;
    for (std::size_t i = 0; i < count; ++i) {
      BytesView p = payload_of(i);
      if (off >= p.size()) continue;
      const std::size_t len = std::min(seg, p.size() - off);
      send_segment(i, TcpFlags::kAck | TcpFlags::kPsh,
                   kIsn + 1 + static_cast<std::uint32_t>(off),
                   BytesView(p.data() + off, len));
      if (++sent % kDrainBatch == 0) loop.run_until_idle();
    }
  }
  // Settle: throttle queues and technique-delayed injections drain here, so
  // the verdict sweep sees the wave's final state.
  loop.run_until_idle();

  // Phase 3: verdicts, before teardown flushes classifier state — the same
  // ordering the full-stack wave loop uses.
  WaveStats stats;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t flags = slots_.at<3>(i);
    FlowOutcome flow;
    flow.tuple = tuple_of(wave_first_ + i);
    flow.reset = (flags & kReset) != 0;
    flow.delivered = slots_.at<2>(i) >= expected_bytes(i);
    flow.started_at = slots_.at<0>(i);
    if ((flags & kCompleted) != 0) flow.completed_at = slots_.at<1>(i);
    stats.score(flow, env_);
  }

  // Phase 4: teardown. Bare RSTs travel the real path: the shim passes
  // them untouched and the DPI middlebox flushes its flow state, bounding
  // classifier memory to one wave's concurrency. The shim's own FlowTable
  // intentionally keeps the entries — carrying the full concurrent-flow
  // population across waves is the point of the LRU cap.
  for (std::size_t i = 0; i < count; ++i) {
    send_segment(i, TcpFlags::kRst,
                 kIsn + 1 + static_cast<std::uint32_t>(payload_of(i).size()),
                 {});
    if (++sent % kDrainBatch == 0) loop.run_until_idle();
  }
  loop.run_until_idle();
  return stats;
}

}  // namespace liberate::deploy
