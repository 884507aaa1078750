// flow_driver.h — packet-level wave driver for fleet-scale flow counts.
//
// The full-stack wave path (stack::Host + TcpConnection per flow) is the
// right fidelity for hundreds of flows; at a million concurrent flows the
// per-connection endpoint state (send/receive buffers, retransmit queues,
// callbacks) dominates memory and the event loop drowns in per-connection
// timers. The PacketFlowDriver replaces the endpoint stack with crafted
// packets: it serializes each flow's SYN, payload segments, and teardown
// RST directly (netsim/tcp.h codecs), pushes them through the shard's
// EvasionShim — so the active technique mutates them exactly as it would
// real stack traffic — and accounts flow outcomes in struct-of-arrays
// columns (util/soa.h) keyed by a contiguous per-shard flow serial. The
// middlebox path, fault links, and DPI classifier see bona fide traffic;
// only the endpoints are synthetic.
//
// Each flow is scored by WaveStats::score (drift.h), the full-stack wave
// loop's scorer, from this evidence:
//   * reset      — the client side observed an injected RST for the flow;
//   * delivered  — the server side accepted the full upload (payload bytes
//                  that pass the TCP checksum; inert injected packets are
//                  dropped here exactly as a real OS would drop them);
//   * the tuple  — for the classifier's direct verdict, read per flow
//                  before teardown.
//
// Teardown RSTs are real packets through the shim (which passes bare RSTs
// on tracked flows untouched): the DPI middlebox flushes its per-flow
// state, so classifier memory is bounded by one wave's concurrency while
// the shim's FlowTable keeps carrying the full concurrent-flow population.
#pragma once

#include <cstdint>
#include <memory>

#include "core/evasion/shim.h"
#include "deploy/drift.h"
#include "dpi/profiles.h"
#include "util/soa.h"

namespace liberate::deploy {

struct PacketFlowConfig {
  /// Client address block: flow serial s maps to
  /// (client_ip_base + s / kPortsPerIp, kFirstPort + s % kPortsPerIp).
  /// Serials are persistent per driver, so tuples never repeat across
  /// waves — the classifier's post-RST result cache can never leak a stale
  /// verdict into a new flow.
  std::uint32_t client_ip_base = 0x0a010000;  // 10.1.0.0
  std::uint32_t server_ip = 0;
  std::uint16_t server_port = 0;
  /// Maximum payload bytes per crafted segment.
  std::size_t segment_bytes = 512;
};

class PacketFlowDriver {
 public:
  static constexpr std::uint32_t kPortsPerIp = 16384;
  static constexpr std::uint16_t kFirstPort = 1024;

  /// Attaches raw client/server sinks to the environment's network (the
  /// shard must not have stack::Hosts attached). The shim is the shard's
  /// long-lived EvasionShim wrapping env.net.client_port().
  PacketFlowDriver(dpi::Environment& env, core::EvasionShim& shim,
                   PacketFlowConfig config);
  ~PacketFlowDriver();

  PacketFlowDriver(const PacketFlowDriver&) = delete;
  PacketFlowDriver& operator=(const PacketFlowDriver&) = delete;

  /// Drive `count` concurrent flows, each uploading `payload`. All flows
  /// open (SYN), then payload segments interleave round-robin across the
  /// whole wave — peak concurrency equals the wave size — then verdicts
  /// are collected and every flow is torn down with an RST. When
  /// `alt_every` is nonzero, every alt_every-th flow uploads `alt_payload`
  /// instead (mixed matching / non-matching traffic).
  WaveStats run_wave(std::size_t count, BytesView payload,
                     BytesView alt_payload = {}, std::size_t alt_every = 0);

 private:
  struct ClientSink;
  struct ServerSink;

  static constexpr std::uint8_t kReset = 1u << 0;
  static constexpr std::uint8_t kCompleted = 1u << 1;

  netsim::FiveTuple tuple_of(std::uint64_t serial) const;
  /// Upload size the flow at `index` is expected to deliver this wave.
  std::uint32_t expected_bytes(std::size_t index) const;

  dpi::Environment& env_;
  core::EvasionShim& shim_;
  PacketFlowConfig config_;
  std::unique_ptr<ClientSink> client_sink_;
  std::unique_ptr<ServerSink> server_sink_;

  /// Per-flow wave state, struct-of-arrays so the verdict sweep walks
  /// contiguous memory: started_at, completed_at (sim us), accepted upload
  /// bytes, flags (bit 0 reset, bit 1 completed).
  SoaColumns<std::uint64_t, std::uint64_t, std::uint32_t, std::uint8_t>
      slots_;
  std::uint64_t wave_first_ = 0;  // serial of this wave's flow 0
  std::uint32_t wave_total_bytes_ = 0;
  std::uint32_t wave_alt_bytes_ = 0;
  std::size_t wave_alt_every_ = 0;

  std::uint64_t serial_ = 0;
};

}  // namespace liberate::deploy
