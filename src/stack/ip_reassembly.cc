#include "stack/ip_reassembly.h"

#include <algorithm>

#include "obs/obs.h"

namespace liberate::stack {

using netsim::Ipv4Header;
using netsim::Ipv4View;

const char* reassembly_policy_name(ReassemblyPolicy policy) {
  switch (policy) {
    case ReassemblyPolicy::kLastWins:
      return "last-wins";
    case ReassemblyPolicy::kFirstWins:
      return "first-wins";
    case ReassemblyPolicy::kBsdLeft:
      return "bsd-left";
    case ReassemblyPolicy::kLinux:
      return "linux";
  }
  return "unknown";
}

void IpReassembler::evict_oldest() {
  auto oldest = buffers_.begin();
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (it->second.first_seen < oldest->second.first_seen) oldest = it;
  }
  buffers_.erase(oldest);
  LIBERATE_COUNTER_ADD("stack.reassembly_buffer_evicted", 1);
}

std::optional<Bytes> IpReassembler::push(BytesView datagram,
                                         netsim::TimePoint now) {
  auto parsed = netsim::parse_ipv4(datagram);
  if (!parsed.ok()) return std::nullopt;
  const Ipv4View& v = parsed.value();

  if (!v.is_fragment()) {
    return Bytes(datagram.begin(), datagram.end());
  }

  LIBERATE_COUNTER_ADD("stack.fragments_received", 1);
  std::size_t offset = v.fragment_offset_bytes();
  if (offset >= limits_.max_datagram_bytes) {
    LIBERATE_COUNTER_ADD("stack.reassembly_oversize_fragment", 1);
    return std::nullopt;
  }

  Key key{v.src, v.dst, v.protocol, v.identification};
  auto found = buffers_.find(key);
  if (found == buffers_.end() && buffers_.size() >= limits_.max_buffers) {
    evict_oldest();
  }
  Buffer& buf = buffers_[key];
  if (buf.pieces.empty()) {
    buf.first_seen = now;
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
    // Non-first fragments carry no ports, so the buffer's own key stands in
    // for the flow (the IP id in a port slot): one provenance decision per
    // datagram, which its piece ids and reassembly edge all follow.
    buf.prov_sampled = obs::prov::ProvenanceRecorder::sampled(
        obs::prov::flow_key(v.src, v.identification, v.dst, 0, v.protocol));
#endif
  }

  if (buf.pieces.size() >= limits_.max_pieces_per_buffer) {
    LIBERATE_COUNTER_ADD("stack.reassembly_piece_overflow", 1);
    return std::nullopt;
  }
  // Clamp piece data so no buffer can grow past the IPv4 maximum even when
  // fed fragments whose actual payload exceeds their declared length.
  BytesView payload = v.payload;
  if (offset + payload.size() > limits_.max_datagram_bytes) {
    payload = payload.subspan(0, limits_.max_datagram_bytes - offset);
    LIBERATE_COUNTER_ADD("stack.reassembly_oversize_fragment", 1);
  }
  buf.pieces.push_back(
      Piece{offset, Bytes(payload.begin(), payload.end()), buf.pieces.size()});
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
  if (buf.prov_sampled) {
    buf.piece_ids.emplace_back(
        obs::prov::ProvenanceRecorder::instance().packet(datagram, "wire"),
        static_cast<std::uint32_t>(datagram.size()));
  }
#endif
  if (!v.flag_more_fragments) {
    std::size_t claimed = offset + payload.size();
    if (buf.total_size && *buf.total_size != claimed) {
      // A second, disagreeing last fragment must not silently shrink or grow
      // the datagram; the first claim stands.
      LIBERATE_COUNTER_ADD("stack.reassembly_conflicting_last_fragment", 1);
    } else {
      buf.total_size = claimed;
    }
  }
  if (offset == 0) {
    Ipv4Header h;
    h.version = 4;
    h.dscp_ecn = v.dscp_ecn;
    h.identification = v.identification;
    h.ttl = v.ttl;
    h.protocol = v.protocol;
    h.src = v.src;
    h.dst = v.dst;
    h.options = v.options;
    buf.header = h;
  }

  // Completion check: we need the last piece, the first piece, and full
  // coverage of [0, total_size). Pieces lying (partly) outside that window —
  // stray offsets past the last fragment — contribute nothing and must not
  // be written into the reassembled buffer below.
  if (!buf.total_size || !buf.header) return std::nullopt;
  const std::size_t total = *buf.total_size;
  std::vector<Piece> sorted = buf.pieces;
  // stable_sort: equal-offset fragments keep arrival order, so "last
  // arrival wins" below is deterministic across STL implementations.
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const Piece& a, const Piece& b) { return a.offset < b.offset; });
  std::size_t covered = 0;
  for (const Piece& p : sorted) {
    if (p.offset >= total) break;  // sorted: everything after is stray too
    if (p.offset > covered) return std::nullopt;  // gap
    covered = std::max(covered, p.offset + p.data.size());
  }
  if (covered < total) return std::nullopt;

  // Reassemble. Conflicting overlap bytes resolve purely by write order —
  // whichever piece is written last owns the byte — so every policy is the
  // same clamped copy loop over a differently ordered piece list.
  std::vector<Piece> write_order;
  switch (policy_) {
    case ReassemblyPolicy::kLastWins:
      // Historical behaviour: ascending offset, equal offsets in arrival
      // order (the stable sort above), so later offsets then later arrivals
      // win — close enough to "last fragment wins" for our experiments.
      write_order = sorted;
      break;
    case ReassemblyPolicy::kFirstWins:
      // Earliest arrival written last: the first copy of every byte stands.
      write_order.assign(buf.pieces.rbegin(), buf.pieces.rend());
      break;
    case ReassemblyPolicy::kBsdLeft:
      // Lower offset wins the overlap, equal offsets favouring the earlier
      // arrival — write descending offset, ties descending arrival.
      write_order = buf.pieces;
      std::sort(write_order.begin(), write_order.end(),
                [](const Piece& a, const Piece& b) {
                  if (a.offset != b.offset) return a.offset > b.offset;
                  return a.arrival > b.arrival;
                });
      break;
    case ReassemblyPolicy::kLinux:
      // Lower offset wins, but equal-offset conflicts favour the later
      // arrival — write descending offset, ties ascending arrival.
      write_order = buf.pieces;
      std::sort(write_order.begin(), write_order.end(),
                [](const Piece& a, const Piece& b) {
                  if (a.offset != b.offset) return a.offset > b.offset;
                  return a.arrival < b.arrival;
                });
      break;
  }
  Bytes payload_out(total, 0);
  for (const Piece& p : write_order) {
    if (p.offset >= total) {
      LIBERATE_COUNTER_ADD("stack.reassembly_stray_piece", 1);
      continue;
    }
    std::size_t n = std::min(p.data.size(), total - p.offset);
    std::copy_n(p.data.begin(), n,
                payload_out.begin() + static_cast<std::ptrdiff_t>(p.offset));
  }
  Bytes whole = serialize_ipv4(*buf.header, payload_out);
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
  if (buf.prov_sampled) {
    auto& rec = obs::prov::ProvenanceRecorder::instance();
    std::uint64_t whole_id = rec.packet(whole, "wire");
    for (auto [piece, piece_size] : buf.piece_ids) {
      rec.edge_ids(now, piece, piece_size, whole_id,
                   static_cast<std::uint32_t>(whole.size()), "reassembly",
                   "ip-reassembler");
    }
  }
#endif
  buffers_.erase(key);
  LIBERATE_COUNTER_ADD("stack.datagrams_reassembled", 1);
  return whole;
}

void IpReassembler::expire(netsim::TimePoint now) {
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    if (now - it->second.first_seen > timeout_) {
      LIBERATE_COUNTER_ADD("stack.reassembly_expired", 1);
      it = buffers_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace liberate::stack
