// probe.h — the ambiguity probe generator and runner.
//
// A ProbeScript is a deterministic recipe for one short flow that plants a
// benign decoy keyword ("news-decoy.example.net" — every DPI profile ships a
// no-action rule for it) inside ambiguous wire input: conflicting TCP
// segment overlaps, overlapping IP fragments, TTL-scoped inserts, shadow
// segments with invalid checksums, IP-option and urgent-pointer quirks,
// out-of-window and sequence-wrap-spanning data, inspection-depth and SYN
// tracking limits. The catalog (ambiguity_probe_catalog) enumerates the
// dimensions in a fixed order; each script runs in its own isolated world,
// and the two observation bits per variant — classifier saw the keyword /
// server saw the keyword — distill into an AmbiguityDigest
// (docs/fingerprinting.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dpi/profiles.h"
#include "fingerprint/ambiguity.h"
#include "util/bytes.h"

namespace liberate::fingerprint {

/// Sentinel for ProbePacket::ip_option_kind: attach an option with an
/// impossible declared length (the "Invalid Options" Table 3 row).
inline constexpr std::uint8_t kInvalidIpOptionKind = 0xFF;

struct ProbePacket {
  enum class Kind : std::uint8_t { kSegment = 0, kFragment = 1 };
  Kind kind = Kind::kSegment;

  // kSegment: one TCP segment of the probe flow. `rel_seq` is relative to
  // ISN+1 (the first data byte); uint32 arithmetic wraps deliberately.
  std::uint32_t rel_seq = 0;
  std::uint8_t tcp_flags = 0;          // 0 = plain ACK data segment
  std::uint8_t ttl = 0;                // 0 = default (64)
  bool corrupt_tcp_checksum = false;
  std::uint16_t urgent_ptr = 0;
  std::uint8_t ip_option_kind = 0;     // 0=none, 136=stream-id, 0xFF=invalid
  Bytes payload;

  // kFragment: one raw IP fragment; `payload` is the slice of the full IP
  // payload (TCP header + app bytes) this fragment carries.
  std::uint16_t frag_offset_words = 0;
  bool more_fragments = false;

  bool operator==(const ProbePacket&) const = default;
};

struct ProbeScript {
  std::string dimension;      // catalog dimension this variant belongs to
  std::uint32_t variant = 0;  // index within the dimension
  std::uint32_t isn = 0;      // client initial sequence number
  bool send_syn = true;
  std::vector<ProbePacket> packets;

  bool operator==(const ProbeScript&) const = default;
};

/// What one probe flow observed.
struct ProbeObservation {
  bool dpi_classified = false;  // classifier logged the decoy "news" class
  bool server_intact = false;   // keyword reached the server stream intact
};

/// The fixed probe catalog. TTL-scoped variants need the path depth
/// (hops_before_middlebox) to aim an insert at the last hop before the
/// middlebox. Order and content are deterministic.
std::vector<ProbeScript> ambiguity_probe_catalog(int hops_before_middlebox);

/// Run one script against a (fresh) environment: raw client/server sinks are
/// attached, every packet is injected client-side, the loop drains, and the
/// two observation bits are read back. The environment's DPI log is
/// consumed; run each script in its own world for isolation.
ProbeObservation run_probe_script(dpi::Environment& env,
                                  const ProbeScript& script);

/// Builds one isolated world per probe script.
using EnvFactory =
    std::function<std::unique_ptr<dpi::Environment>(std::uint64_t seed)>;

struct AmbiguityProbeOptions {
  std::size_t workers = 1;  // >1 fans scripts out over a thread pool
  std::uint64_t seed = 1;
};

struct AmbiguityProbeResult {
  AmbiguityDigest digest;
  std::size_t probe_flows = 0;  // scripts executed (one flow each)
};

/// Probe a classifier implementation: run the whole catalog, one isolated
/// world per script, and distill the observations into a digest. The result
/// is byte-identical across worker counts and match backends.
AmbiguityProbeResult probe_ambiguity(const EnvFactory& factory,
                                     const AmbiguityProbeOptions& options = {});

/// Convenience: probe a named dpi profile (make_environment).
AmbiguityProbeResult probe_environment(const std::string& name,
                                       const AmbiguityProbeOptions& options = {});

}  // namespace liberate::fingerprint
