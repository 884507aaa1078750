// validation.h — packet anomaly detection and configurable validation policy.
//
// Every row of the paper's Table 3 corresponds to one anomaly a crafted inert
// packet can carry. Whether a given element (router hop, middlebox classifier,
// endpoint OS) *checks* each anomaly is exactly what distinguishes the
// environments the paper measured — "middleboxes exhibit different, incomplete
// implementations of network and transport layers" (§1). A ValidationPolicy is
// therefore just the set of anomalies an element rejects packets for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/packet.h"

namespace liberate::netsim {

enum class Anomaly : std::uint32_t {
  kBadIpVersion = 1u << 0,
  kBadIpHeaderLength = 1u << 1,
  kIpTotalLengthLong = 1u << 2,   // declared length > actual bytes
  kIpTotalLengthShort = 1u << 3,  // declared length < actual bytes
  kBadIpChecksum = 1u << 4,
  kUnknownIpProtocol = 1u << 5,  // not TCP/UDP/ICMP
  kInvalidIpOptions = 1u << 6,
  kDeprecatedIpOptions = 1u << 7,
  kBadTcpChecksum = 1u << 8,
  kBadTcpDataOffset = 1u << 9,
  kInvalidTcpFlagCombo = 1u << 10,
  kTcpDataNoAck = 1u << 11,       // payload-carrying segment without ACK flag
  kBadUdpChecksum = 1u << 12,
  kUdpLengthLong = 1u << 13,
  kUdpLengthShort = 1u << 14,
  // Stateful anomalies, flagged by flow-tracking code rather than
  // anomalies_of():
  kTcpSeqOutOfWindow = 1u << 15,
  kIpFragment = 1u << 16,         // not an error, but some paths drop these
};

using AnomalySet = std::uint32_t;

constexpr AnomalySet anomaly_bit(Anomaly a) {
  return static_cast<AnomalySet>(a);
}
constexpr bool has_anomaly(AnomalySet set, Anomaly a) {
  return (set & anomaly_bit(a)) != 0;
}

/// All stateless anomalies present in a parsed packet (checksums verified
/// against the addresses in the packet itself).
AnomalySet anomalies_of(const PacketView& pkt);

/// Human-readable list, for reports and error messages.
std::string describe_anomalies(AnomalySet set);

/// A set of anomalies an element rejects packets for. `rejects()` is the
/// single question every element asks: "given what I validate, do I treat
/// this packet as garbage?"
struct ValidationPolicy {
  AnomalySet checked = 0;

  ValidationPolicy& check(Anomaly a) {
    checked |= anomaly_bit(a);
    return *this;
  }
  bool rejects(AnomalySet present) const { return (present & checked) != 0; }

  /// Strict end-host policy: everything validated (modern OS default).
  static ValidationPolicy strict();
  /// Validate nothing — a naive classifier.
  static ValidationPolicy none();
};

}  // namespace liberate::netsim
