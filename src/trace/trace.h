// trace.h — recorded application traffic.
//
// lib·erate's unit of work is a recorded client/server exchange that can be
// replayed against a replay server (Fig. 3 step 1). An ApplicationTrace is a
// sequence of directional application-layer messages plus metadata; the
// replay machinery (src/core/replay) turns it into real packets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace liberate::trace {

enum class Sender { kClient, kServer };

struct Message {
  Sender sender = Sender::kClient;
  Bytes payload;
  /// Inter-message gap in microseconds of application time (used for
  /// realistic pacing; 0 = back-to-back).
  std::uint64_t gap_us = 0;
};

enum class Transport { kTcp, kUdp };

struct ApplicationTrace {
  std::string app_name;     // e.g. "AmazonPrimeVideo"
  Transport transport = Transport::kTcp;
  std::uint16_t server_port = 80;
  std::vector<Message> messages;

  std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& m : messages) n += m.payload.size();
    return n;
  }
  std::size_t client_bytes() const {
    std::size_t n = 0;
    for (const auto& m : messages) {
      if (m.sender == Sender::kClient) n += m.payload.size();
    }
    return n;
  }
  std::size_t client_messages() const {
    std::size_t n = 0;
    for (const auto& m : messages) {
      if (m.sender == Sender::kClient) ++n;
    }
    return n;
  }

  /// Return a copy with every payload bit inverted — the deterministic
  /// "control" traffic of the detection phase (§5.1): guaranteed to share no
  /// byte pattern with the original.
  ApplicationTrace bit_inverted() const;
};

}  // namespace liberate::trace
