// pcapng.h — pcapng (pcap next generation) export with per-packet
// comments: the library's capture format.
//
// Lets wire captures from TapElements be inspected with standard tooling
// (tcpdump/wireshark); tests/trace/pcapng_test.cc carries an independent
// reader that checks the output round-trips byte-exactly. Unlike
// classic pcap, pcapng Enhanced Packet Blocks carry an opt_comment option,
// so a capture can show *why* a packet crossed the wire as well as *what*:
// the provenance flight recorder annotates every packet with its lineage
// and verdict ("split of 77bb.. by split/tcp-segmentation; rule
// testbed-http-video matched"), and Wireshark renders the comment right in
// the packet list. Link type is LINKTYPE_RAW: each record is one IPv4
// datagram, and timestamps are virtual-simulation microseconds.
#pragma once

#include <string>
#include <vector>

#include "netsim/network.h"
#include "netsim/simclock.h"
#include "util/bytes.h"

namespace liberate::trace {

struct PcapngRecord {
  netsim::TimePoint at = 0;  // microseconds
  Bytes datagram;
  std::string comment;  // empty = no opt_comment emitted
};

/// Serialize records as a pcapng stream: one Section Header Block, one
/// Interface Description Block (LINKTYPE_RAW=101, microsecond resolution),
/// then one Enhanced Packet Block per record.
Bytes write_pcapng(const std::vector<PcapngRecord>& records);

/// Everything a tap saw, as an uncommented pcapng stream.
Bytes tap_to_pcapng(const netsim::TapElement& tap);

}  // namespace liberate::trace
