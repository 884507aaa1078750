// ipv4.h — IPv4 header codec.
//
// The serializer honors deliberately invalid field values (wrong version, bad
// IHL, total length that disagrees with the actual buffer, wrong checksum,
// malformed options): crafting such packets is how lib·erate's inert-packet
// techniques work. Fields that are normally derived (IHL, total length,
// checksum) default to "auto" and are computed during serialization unless an
// explicit override is set.
//
// The parser is deliberately *lenient*: it extracts whatever structure it can
// from arbitrary bytes and reports anomalies, because both middleboxes and
// endpoint stacks must be able to look at malformed packets and decide for
// themselves what to do (that decision lives in validation.h / os_profile.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace liberate::netsim {

/// IP protocol numbers used in this library.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

/// Sentinel for "let the builder choose" (255 is IANA-reserved).
constexpr std::uint8_t kProtoUnset = 255;

/// Dotted-quad convenience: addr("10.0.0.1").
std::uint32_t ip_addr(const std::string& dotted);
std::string ip_to_string(std::uint32_t addr);

/// An IPv4 option as it appears on the wire. kind 0 (EOL) and 1 (NOP) are
/// single-byte; all others are TLV with a length byte covering kind+len+data.
struct Ipv4Option {
  std::uint8_t kind = 0;
  Bytes data;

  /// Declared length byte; 0 = auto (2 + data.size()). A wrong declared
  /// length is one way to build an *invalid* option.
  std::uint8_t declared_length = 0;

  static Ipv4Option nop() { Ipv4Option o; o.kind = 1; return o; }
  /// Deprecated Stream Identifier option (kind 136, RFC 791 / deprecated by
  /// RFC 6814) — Table 3's "Deprecated Options" row.
  static Ipv4Option stream_id(std::uint16_t id);
  /// An option with an impossible declared length — "Invalid Options" row.
  static Ipv4Option invalid_length();
};

struct Ipv4Header {
  std::uint8_t version = 4;
  /// Header length in 32-bit words; 0 = auto (5 + options). Minimum legal is 5.
  std::uint8_t ihl_words = 0;
  std::uint8_t dscp_ecn = 0;
  /// 0 = auto (header + payload size); explicit values may lie (Table 3
  /// "Total Length longer/shorter than payload" rows).
  std::optional<std::uint16_t> total_length_override;
  std::uint16_t identification = 0;
  bool flag_reserved = false;
  bool flag_dont_fragment = false;
  bool flag_more_fragments = false;
  std::uint16_t fragment_offset_words = 0;
  std::uint8_t ttl = 64;
  /// kProtoUnset lets the packet.h builders fill in the transport protocol;
  /// an explicit value (e.g. a wrong one) is honored verbatim.
  std::uint8_t protocol = kProtoUnset;
  /// unset = auto-compute correct checksum; set = use this exact value.
  std::optional<std::uint16_t> checksum_override;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::vector<Ipv4Option> options;
};

/// Serialize header + payload into a complete IP datagram. Options are padded
/// with EOL bytes to a 32-bit boundary. Auto fields are computed here.
Bytes serialize_ipv4(const Ipv4Header& header, BytesView payload);

/// Result of leniently parsing an IP datagram.
struct Ipv4View {
  // Raw field values exactly as read off the wire.
  std::uint8_t version = 0;
  std::uint8_t ihl_words = 0;
  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;  // declared
  std::uint16_t identification = 0;
  bool flag_reserved = false;
  bool flag_dont_fragment = false;
  bool flag_more_fragments = false;
  std::uint16_t fragment_offset_words = 0;
  std::uint8_t ttl = 0;
  std::uint8_t protocol = 0;
  std::uint16_t checksum = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::vector<Ipv4Option> options;

  // Derived.
  std::size_t header_length = 0;   // effective bytes consumed by the header
  BytesView payload;               // bytes after the header (actual buffer)
  std::size_t datagram_size = 0;   // actual buffer size

  bool is_fragment() const {
    return flag_more_fragments || fragment_offset_words != 0;
  }
  std::size_t fragment_offset_bytes() const {
    return static_cast<std::size_t>(fragment_offset_words) * 8;
  }

  // Anomalies recorded during parsing (consumed by validation policies).
  bool bad_version = false;          // version != 4
  bool bad_ihl = false;              // ihl < 5 or header exceeds buffer
  bool bad_total_length = false;     // declared != actual buffer size
  bool total_length_short = false;   // declared < actual
  bool total_length_long = false;    // declared > actual
  bool bad_checksum = false;         // header checksum mismatch
  bool bad_options = false;          // malformed option encoding
  bool has_deprecated_option = false;

  /// True if any header anomaly was recorded.
  bool any_anomaly() const {
    return bad_version || bad_ihl || bad_total_length || bad_checksum ||
           bad_options;
  }
};

/// Parse a datagram. Fails only if the buffer is too small to contain the
/// fixed 20-byte header; every other malformation is reported via the
/// anomaly flags so policy code can decide.
Result<Ipv4View> parse_ipv4(BytesView datagram);

/// Recompute and patch the header checksum of a serialized datagram in place
/// (used after in-place mutations such as TTL rewriting at hops).
void refresh_ipv4_checksum(Bytes& datagram);

/// Rewrite the TTL of a serialized datagram in place, keeping the header
/// checksum consistent via incremental update (RFC 1624 style).
void set_ttl_in_place(Bytes& datagram, std::uint8_t new_ttl);

}  // namespace liberate::netsim
