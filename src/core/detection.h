// detection.h — differentiation detection (§4.1, §5.1).
//
// Replays the recorded trace as-is and with every payload bit inverted. The
// inverted replay is the deterministic "control": any byte pattern a DPI
// rule could match is systematically absent, unlike the randomized payloads
// of earlier work which were "sometimes accidentally classified as a
// targeted application".
#pragma once

#include <vector>

#include "core/replay.h"

namespace liberate::core {

struct DetectionResult {
  /// The original trace experienced the environment's policy.
  bool differentiation = false;
  /// ...and the control did not: the policy keys on content.
  bool content_based = false;
  /// The bit-inverted control was ALSO differentiated (an inversion-aware
  /// adversary, §5.1 note 7) and a random-payload control settled it.
  bool used_randomization_fallback = false;
  /// Set by detect_differentiation_robust when the policy only became
  /// visible from a previously unseen replay server (§4.2: the adversary
  /// whitelisted the known one).
  bool needed_unseen_server = false;
  ReplayOutcome original;
  ReplayOutcome inverted;
  int rounds = 0;
  std::uint64_t bytes_used = 0;
  double virtual_seconds = 0;
};

/// The control and the original go out as one wave, control first: in a
/// shared world an escalating censor (the GFC blocks a server:port outright
/// after two classified flows, §6.5) could otherwise poison the control's
/// port with the original's verdict and fake a content-independent policy.
DetectionResult detect_differentiation(ProbeExecutor& executor,
                                       const trace::ApplicationTrace& trace,
                                       std::uint16_t server_port_override = 0,
                                       std::uint32_t server_ip_override = 0);

/// §4.2 "Characterization countermeasures": if the default replay server
/// shows no differentiation, retry from previously unseen server addresses
/// before concluding the network is clean. Costs cover every attempt.
DetectionResult detect_differentiation_robust(
    ProbeExecutor& executor, const trace::ApplicationTrace& trace,
    const std::vector<std::uint32_t>& unseen_server_ips);

}  // namespace liberate::core
