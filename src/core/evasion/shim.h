// shim.h — the evasion shim: lib·erate's deployment vehicle.
//
// An EvasionShim wraps the client's NetworkPort, exactly where the paper's
// transparent proxy / linked library sits (Fig. 3, step 3): below the
// unmodified application and its stack, above the wire. It watches outgoing
// packets, recognizes the flow structure (handshake, first payload packet,
// the packet carrying matching fields) and lets the active Technique inject
// or rewrite packets.
//
// Per-flow state lives in an open-addressing LRU FlowTable (util/
// flow_table.h): contiguous struct-of-arrays slots, tombstone-free
// deletion, intrusive recency links — one shim comfortably tracks a
// million concurrent flows. Evicting a flow forgets its "already mutated"
// marks; if the same 5-tuple re-arrives mid-stream the shim recognizes the
// missing handshake and gives it retransmission semantics (transform only,
// no injection, no re-count) instead of double-mutating it.
#pragma once

#include <memory>
#include <optional>

#include "core/evasion/technique.h"
#include "netsim/network.h"
#include "util/flow_table.h"

namespace liberate::core {

class EvasionShim : public netsim::NetworkPort {
 public:
  /// Default per-flow state cap: deployments wrap every flow of an
  /// application, and an unbounded table would grow with fleet traffic.
  static constexpr std::size_t kDefaultMaxFlows = 4096;

  /// Non-owning construction: `technique` must outlive the shim (the replay
  /// harness scopes both to one round). Deployments that swap techniques at
  /// runtime must use the owning set_technique overloads instead.
  EvasionShim(netsim::NetworkPort& inner, Technique* technique,
              TechniqueContext context)
      : inner_(inner), technique_(technique), context_(std::move(context)) {}

  void send(Bytes datagram) override;
  netsim::EventLoop& loop() override { return inner_.loop(); }

  /// Swap the active technique at runtime (adaptation). The shim takes
  /// (shared) ownership so packets in flight keep a live technique even if
  /// the control plane drops its reference first — hot-swapping mid-flow
  /// must never leave technique_ dangling. A UDP first-payload packet held
  /// by the outgoing technique is released first: held bytes belong to the
  /// era that held them, not to the incoming technique's counters.
  void set_technique(std::shared_ptr<Technique> technique) {
    release_held_udp();
    owned_technique_ = std::move(technique);
    technique_ = owned_technique_.get();
  }
  void clear_technique() {
    release_held_udp();
    technique_ = nullptr;
    owned_technique_.reset();
  }
  const Technique* technique() const { return technique_; }
  void set_context(TechniqueContext context) { context_ = std::move(context); }
  const TechniqueContext& context() const { return context_; }

  /// Bound the per-flow state table (LRU eviction; 0 = unlimited). Evicting
  /// a live flow forgets its "already mutated" marks, so the cap should sit
  /// well above the expected concurrent-flow count — the default does.
  void set_max_flows(std::size_t max_flows) {
    max_flows_ = max_flows;
    enforce_flow_cap();
  }
  std::size_t tracked_flows() const { return flows_.size(); }
  std::uint64_t flows_evicted() const { return flows_evicted_; }
  /// Occupancy of the open-addressing flow table, for telemetry.
  double flow_table_load() const { return flows_.load_factor(); }
  /// Pre-size the flow table (e.g. a fleet shard that knows its wave
  /// concurrency) so the hot path never pays a growth rehash.
  void reserve_flows(std::size_t flows) { flows_.reserve(flows); }

  /// Localization support: force this TTL onto packets that carry matching
  /// fields (used by the TTL-probing phase, §5.2).
  void set_match_packet_ttl(std::optional<std::uint8_t> ttl) {
    match_packet_ttl_ = ttl;
  }

  std::uint64_t packets_injected() const { return packets_injected_; }
  std::uint64_t packets_rewritten() const { return packets_rewritten_; }

 private:
  void emit(std::vector<TimedDatagram> datagrams);
  /// Look up (or create) the flow's state and mark it most recently used,
  /// evicting the coldest flow when the table exceeds max_flows_. The
  /// returned reference is only valid until the next touch_flow call (open
  /// addressing relocates entries; stale access is ASan-poisoned).
  FlowShimState& touch_flow(const netsim::FiveTuple& tuple,
                            const netsim::PacketView& pkt);
  void enforce_flow_cap();
  /// Flush the UDP-swap hold slot down the wire (no-op when empty).
  void release_held_udp();

  netsim::NetworkPort& inner_;
  Technique* technique_;
  /// Set by the owning set_technique overloads; null when the technique is
  /// externally owned (replay-scoped construction).
  std::shared_ptr<Technique> owned_technique_;
  TechniqueContext context_;
  FlowTable<netsim::FiveTuple, FlowShimState, netsim::FiveTupleHash> flows_;
  std::size_t max_flows_ = kDefaultMaxFlows;
  std::uint64_t flows_evicted_ = 0;
  std::optional<Bytes> held_udp_packet_;
  std::optional<std::uint8_t> match_packet_ttl_;
  std::uint64_t packets_injected_ = 0;
  std::uint64_t packets_rewritten_ = 0;
};

}  // namespace liberate::core
