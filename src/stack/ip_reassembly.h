// ip_reassembly.h — IPv4 fragment reassembly (endpoint and middlebox side).
//
// Keyed by (src, dst, protocol, identification) per RFC 791. Holds fragments
// until the full datagram can be reconstructed or a timeout expires. Both
// endpoint stacks and (some) classifiers reassemble — whether a middlebox does
// is one of the implementation quirks Table 3 probes (the testbed classifies
// reassembled fragments; TMUS/GFC pass them; Iran's path drops them).
//
// Fragments are adversarial input here (the evasion shim *crafts* overlapping
// and stray fragments), so every resource is bounded: tracked buffers, pieces
// per buffer, and the reassembled datagram size. Pieces lying outside the
// final [0, total_size) window are ignored rather than written (they used to
// be an out-of-bounds write), and duplicate-offset overlaps resolve
// deterministically (last arrival wins). See docs/robustness.md.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "netsim/packet.h"
#include "netsim/simclock.h"
#include "util/bytes.h"

namespace liberate::stack {

/// How conflicting data in overlapping fragments is resolved — the
/// target-based reassembly policies of Shankar & Paxson / Novak that real
/// stacks and IDSes disagree on, and exactly the discrepancy the ambiguity
/// probe engine (src/fingerprint) fingerprints:
///
///   * kLastWins  — subsequent fragments overwrite earlier data (the
///     overwrite policy; this library's historical behaviour, kept as the
///     default so existing digests and tests are unchanged);
///   * kFirstWins — the first-arriving copy of every byte stands;
///   * kBsdLeft   — the fragment with the lower offset wins the overlap,
///     ties favouring the earlier arrival (classic 4.4BSD left-trim);
///   * kLinux     — the fragment with the strictly lower offset wins,
///     equal-offset ties favouring the later arrival.
enum class ReassemblyPolicy { kLastWins, kFirstWins, kBsdLeft, kLinux };

const char* reassembly_policy_name(ReassemblyPolicy policy);

/// Hard caps on reassembly state. Exceeding a cap never aborts — the
/// offending fragment (or the oldest buffer) is dropped and an obs counter
/// ticks, which is what a production stack under attack must do.
struct ReassemblyLimits {
  /// Concurrently tracked (incomplete) reassembly buffers; the oldest is
  /// evicted to make room ("stack.reassembly_buffer_evicted").
  std::size_t max_buffers = 1024;
  /// Fragments buffered per datagram ("stack.reassembly_piece_overflow").
  std::size_t max_pieces_per_buffer = 256;
  /// Upper bound on any reassembled datagram payload — the IPv4 maximum.
  /// Fragments starting at or past it are dropped
  /// ("stack.reassembly_oversize_fragment").
  std::size_t max_datagram_bytes = 65535;
};

class IpReassembler {
 public:
  explicit IpReassembler(netsim::Duration timeout = netsim::seconds(30),
                         ReassemblyLimits limits = {},
                         ReassemblyPolicy policy = ReassemblyPolicy::kLastWins)
      : timeout_(timeout), limits_(limits), policy_(policy) {}
  explicit IpReassembler(ReassemblyPolicy policy)
      : IpReassembler(netsim::seconds(30), {}, policy) {}

  /// Feed one datagram. Non-fragments pass through unchanged. Fragments are
  /// buffered; when the set completes, the reassembled full datagram (with a
  /// recomputed header, MF cleared) is returned.
  std::optional<Bytes> push(BytesView datagram, netsim::TimePoint now);

  /// Drop incomplete reassembly buffers older than the timeout.
  void expire(netsim::TimePoint now);

  std::size_t pending() const { return buffers_.size(); }
  const ReassemblyLimits& limits() const { return limits_; }
  ReassemblyPolicy policy() const { return policy_; }

 private:
  struct Key {
    std::uint32_t src, dst;
    std::uint8_t protocol;
    std::uint16_t identification;
    auto operator<=>(const Key&) const = default;
  };
  struct Piece {
    std::size_t offset;
    Bytes data;
    std::size_t arrival;  // arrival rank within the buffer (overlap tiebreak)
  };
  struct Buffer {
    std::vector<Piece> pieces;  // in arrival order (overlap tiebreak)
    std::optional<std::size_t> total_size;  // known once the MF=0 piece arrives
    netsim::TimePoint first_seen;
    // Header template taken from the offset-0 fragment.
    std::optional<netsim::Ipv4Header> header;
    // Lineage id and datagram size of each buffered fragment, recorded only
    // when the provenance recorder is compiled in and its scope samples this
    // buffer (layout is level-independent so mixed-level TUs stay ODR-safe).
    // The size lets the reassembly edge re-register a fragment whose node
    // was evicted.
    bool prov_sampled = false;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> piece_ids;
  };

  void evict_oldest();

  netsim::Duration timeout_;
  ReassemblyLimits limits_;
  ReassemblyPolicy policy_;
  std::map<Key, Buffer> buffers_;
};

}  // namespace liberate::stack
