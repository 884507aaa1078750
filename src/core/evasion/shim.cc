#include "core/evasion/shim.h"

#include "obs/obs.h"
#include "util/strings.h"

namespace liberate::core {

using netsim::Direction;
using netsim::FiveTuple;
using netsim::PacketView;

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
namespace {

/// Provenance hop kind for a technique's mutations.
const char* hop_kind(Category c) {
  switch (c) {
    case Category::kInertInsertion:
      return "insert";
    case Category::kPayloadSplitting:
      return "split";
    case Category::kPayloadReordering:
      return "reorder";
    case Category::kClassificationFlushing:
      return "flush";
  }
  return "rewrite";
}

/// Locate a transformed piece's bytes within its parent packet. Only header
/// scalars of `parent` are read — its payload spans may already dangle once
/// the parent buffer has been moved into the technique.
std::string piece_detail(const PacketView& parent, const Bytes& piece) {
  auto parsed = netsim::parse_packet(piece);
  if (!parsed.ok()) return {};
  const PacketView& pv = parsed.value();
  if (pv.ip.fragment_offset_words != 0 || pv.ip.flag_more_fragments) {
    return format("ip-frag offset=%zu",
                  static_cast<std::size_t>(pv.ip.fragment_offset_words) * 8);
  }
  if (parent.tcp && pv.tcp && !pv.tcp->payload.empty()) {
    std::uint32_t off = pv.tcp->seq - parent.tcp->seq;
    if (off < parent.tcp->payload.size()) {
      return format("payload[%u..%zu) of parent", off,
                    static_cast<std::size_t>(off) + pv.tcp->payload.size());
    }
  }
  return {};
}

}  // namespace
#endif

FlowShimState& EvasionShim::touch_flow(const netsim::FiveTuple& tuple,
                                       const PacketView& pkt) {
  auto [value, inserted] = flows_.touch(tuple);
  if (!inserted) return *value;
  // Fresh state. A TCP flow whose first packet through the shim is not the
  // SYN is being resumed mid-stream — its previous state was LRU-evicted
  // (or the shim attached late). Give it retransmission semantics: the
  // injection/mutation bookkeeping already happened in the flow's first
  // life, so replaying it here would double-mutate the matching packet and
  // attribute the old flow's traffic to whatever technique is active now.
  if (pkt.is_tcp() && pkt.tcp && !pkt.tcp->syn()) {
    value->resumed = true;
    value->payload_packets_sent = 1;
    value->match_packet_seen = true;
    value->injected_before_payload = true;
    value->injected_after_match = true;
  }
  enforce_flow_cap();
  // Eviction backward-shifts table slots, so the insert-time pointer may be
  // stale (ASan-poisoned); re-resolve the entry.
  return *flows_.find(tuple);
}

void EvasionShim::enforce_flow_cap() {
  if (max_flows_ == 0) return;
  while (flows_.size() > max_flows_) {
    flows_.evict_lru();
    ++flows_evicted_;
    LIBERATE_COUNTER_ADD("core.shim.flow_evictions", 1);
  }
}

void EvasionShim::release_held_udp() {
  if (!held_udp_packet_) return;
  Bytes held = std::move(*held_udp_packet_);
  held_udp_packet_.reset();
  inner_.send(std::move(held));
}

void EvasionShim::emit(std::vector<TimedDatagram> datagrams) {
  for (auto& td : datagrams) {
    if (td.delay == 0) {
      inner_.send(std::move(td.datagram));
    } else {
      netsim::EventLoop& l = inner_.loop();
      netsim::NetworkPort* port = &inner_;
      l.schedule(td.delay, [port, d = std::move(td.datagram)]() mutable {
        port->send(std::move(d));
      });
    }
  }
}

void EvasionShim::send(Bytes datagram) {
  auto parsed = netsim::parse_packet(datagram);
  if (!parsed.ok()) {
    inner_.send(std::move(datagram));
    return;
  }
  const PacketView& pkt = parsed.value();

  // TTL override for localization probes applies with or without a
  // technique.
  const bool has_payload = !pkt.app_payload().empty();
  const bool is_match =
      has_payload && contains_matching_field(pkt.app_payload(),
                                             context_.matching_snippets);
  if (match_packet_ttl_ && is_match) {
    netsim::set_ttl_in_place(datagram, *match_packet_ttl_);
  }

  if (technique_ == nullptr) {
    inner_.send(std::move(datagram));
    return;
  }

  FiveTuple tuple = pkt.five_tuple();
  // A bare RST (no payload) on an untracked flow carries nothing a
  // technique can act on; creating state for it would let teardown traffic
  // churn the LRU table and resurrect evicted flows as ghost entries.
  if (pkt.is_tcp() && pkt.tcp && pkt.tcp->rst() && !has_payload &&
      flows_.find(tuple) == nullptr) {
    inner_.send(std::move(datagram));
    return;
  }
  FlowShimState& state = touch_flow(tuple, pkt);
  state.tuple = tuple;
  state.udp = pkt.is_udp();

  // UDP order swap: hold the first payload packet, release it after the
  // second.
  if (pkt.is_udp() && technique_->swaps_first_two_udp_packets()) {
    if (state.payload_packets_sent == 0 && !held_udp_packet_) {
      held_udp_packet_ = std::move(datagram);
      state.payload_packets_sent += 1;
      ++packets_rewritten_;
      LIBERATE_COST_TICK(kMutatedPackets, 1);
      return;
    }
    if (held_udp_packet_) {
      Bytes first = std::move(*held_udp_packet_);
      held_udp_packet_.reset();
      state.payload_packets_sent += 1;
      LIBERATE_PROV_NOTE_PKT(inner_.loop().now(), first, "mutation",
                             obs::fv("hop", "reorder"),
                             obs::fv("actor", technique_->name()),
                             obs::fv("detail", "udp-swap-first-two"));
      inner_.send(std::move(datagram));
      inner_.send(std::move(first));
      return;
    }
    state.payload_packets_sent += 1;
    inner_.send(std::move(datagram));
    return;
  }

  if (!has_payload) {
    // Handshake/ACK/RST/FIN control traffic passes untouched.
    inner_.send(std::move(datagram));
    return;
  }

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
  // One provenance decision for everything below, taken from the header
  // before the buffer moves into the technique. An unsampled flow skips
  // every digest, piece id and piece description.
  auto& prov_rec = obs::prov::ProvenanceRecorder::instance();
  const obs::prov::FlowKey prov_flow = obs::prov::flow_key_of(datagram);
  const bool prov_sampled = obs::prov::ProvenanceRecorder::sampled(prov_flow);
  const std::uint64_t prov_now = inner_.loop().now();
#endif

  // Injections that precede the first payload-carrying packet.
  if (state.payload_packets_sent == 0) {
    auto inj = technique_->inject_before_first_payload(pkt, state, context_);
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
    if (prov_sampled) {
      for (const TimedDatagram& td : inj) {
        prov_rec.edge(prov_now, datagram, td.datagram,
                      hop_kind(technique_->category()), technique_->name(),
                      "before-first-payload");
      }
      if (!inj.empty()) {
        // Ledger entry so the injection shows up in the flow's decision
        // path (the edges alone only live in the lineage graph).
        prov_rec.note(
            prov_now, prov_flow, "mutation",
            {obs::fv("hop", hop_kind(technique_->category())),
             obs::fv("technique", technique_->name()),
             obs::fv("injected", static_cast<std::uint64_t>(inj.size())),
             obs::fv("position", "before-first-payload")},
            obs::prov::packet_id(inj.front().datagram));
      }
    }
#endif
    packets_injected_ += inj.size();
    emit(std::move(inj));
  }
  state.payload_packets_sent += 1;

  if (is_match) {
    const bool first_match = !state.match_packet_seen;
    state.match_packet_seen = true;
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
    // Digest the matching packet before its buffer moves into the
    // technique; every produced piece records a causal hop back to it.
    const std::uint64_t parent_id =
        prov_sampled ? prov_rec.packet(datagram, "wire") : 0;
    const auto parent_size = static_cast<std::uint32_t>(datagram.size());
#endif
    auto pieces = technique_->transform_matching_packet(std::move(datagram),
                                                        pkt, state, context_);
    if (first_match && pieces.size() != 1) {
      packets_rewritten_ += pieces.size();
      LIBERATE_COST_TICK(kMutatedPackets, pieces.size());
    }
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
    if (prov_sampled) {
      for (const TimedDatagram& td : pieces) {
        prov_rec.edge_ids(prov_now, parent_id, parent_size,
                          obs::prov::packet_id(td.datagram),
                          static_cast<std::uint32_t>(td.datagram.size()),
                          hop_kind(technique_->category()), technique_->name(),
                          piece_detail(pkt, td.datagram));
      }
      if (pieces.size() > 1) {
        prov_rec.note(prov_now, prov_flow, "mutation",
                      {obs::fv("hop", hop_kind(technique_->category())),
                       obs::fv("technique", technique_->name()),
                       obs::fv("pieces",
                               static_cast<std::uint64_t>(pieces.size()))},
                      obs::prov::packet_id(pieces.front().datagram));
      }
    }
#endif
    emit(std::move(pieces));
    if (!first_match) return;  // retransmission: transform only, no inject
    auto after = technique_->inject_after_match(pkt, state, context_);
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
    if (prov_sampled) {
      for (const TimedDatagram& td : after) {
        prov_rec.edge_ids(prov_now, parent_id, parent_size,
                          obs::prov::packet_id(td.datagram),
                          static_cast<std::uint32_t>(td.datagram.size()),
                          hop_kind(technique_->category()), technique_->name(),
                          "after-match");
      }
      if (!after.empty()) {
        prov_rec.note(prov_now, prov_flow, "mutation",
                      {obs::fv("hop", hop_kind(technique_->category())),
                       obs::fv("technique", technique_->name()),
                       obs::fv("injected",
                               static_cast<std::uint64_t>(after.size())),
                       obs::fv("position", "after-match")},
                      obs::prov::packet_id(after.front().datagram));
      }
    }
#endif
    packets_injected_ += after.size();
    emit(std::move(after));
    return;
  }

  inner_.send(std::move(datagram));
}

}  // namespace liberate::core
