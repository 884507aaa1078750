#include "core/detection.h"

#include "util/rng.h"

namespace liberate::core {

namespace {

/// Random-payload control (the §5.1 fallback): same message structure,
/// random bytes. Randomization can accidentally contain matching patterns —
/// which is exactly why bit inversion is the primary control — but it
/// defeats an inversion-aware adversary.
trace::ApplicationTrace randomized_control_trace(
    const trace::ApplicationTrace& trace, std::uint64_t seed) {
  trace::ApplicationTrace out = trace;
  Rng rng(seed);
  for (auto& m : out.messages) m.payload = rng.bytes(m.payload.size());
  return out;
}

}  // namespace

DetectionResult detect_differentiation(ProbeExecutor& executor,
                                       const trace::ApplicationTrace& trace,
                                       std::uint16_t server_port_override,
                                       std::uint32_t server_ip_override) {
  DetectionResult result;
  ProbeCost cost;
  auto round = [&](trace::ApplicationTrace t) {
    RoundRequest req;
    req.trace = std::move(t);
    req.server_port_override = server_port_override;
    req.server_ip_override = server_ip_override;
    return req;
  };

  std::vector<RoundResult> rounds =
      executor.run_batch({round(trace.bit_inverted()), round(trace)});
  cost.add(rounds);
  result.inverted = rounds[0].outcome;
  result.original = rounds[1].outcome;
  result.differentiation = rounds[1].differentiated;
  const bool inverted_differentiated = rounds[0].differentiated;
  result.content_based = result.differentiation && !inverted_differentiated;

  // §5.1: "This approach can be detected by middleboxes, so we fall back to
  // randomization if bit inversion fails to reveal correct matching rules."
  if (result.differentiation && inverted_differentiated) {
    RoundRequest fallback = round(randomized_control_trace(trace, 0xD37EC7));
    if (fallback.server_ip_override == 0) {
      // Two differentiated replays may already have escalated the default
      // (server, port) endpoint (GFC, §6.5); judge the control from a fresh
      // address so that only content decides.
      fallback.server_ip_override = 0xc6336421;  // 198.51.100.33
    }
    std::vector<RoundResult> random = executor.run_batch({fallback});
    cost.add(random);
    if (!random[0].differentiated) {
      result.content_based = true;
      result.used_randomization_fallback = true;
    }
  }
  result.rounds = cost.rounds;
  result.bytes_used = cost.bytes;
  result.virtual_seconds = cost.virtual_seconds;
  return result;
}

DetectionResult detect_differentiation_robust(
    ProbeExecutor& executor, const trace::ApplicationTrace& trace,
    const std::vector<std::uint32_t>& unseen_server_ips) {
  DetectionResult result = detect_differentiation(executor, trace);
  if (result.differentiation) return result;
  for (std::uint32_t ip : unseen_server_ips) {
    DetectionResult retry = detect_differentiation(executor, trace, 0, ip);
    retry.rounds += result.rounds;
    retry.bytes_used += result.bytes_used;
    retry.virtual_seconds += result.virtual_seconds;
    if (retry.differentiation) {
      retry.needed_unseen_server = true;
      return retry;
    }
    result = retry;
  }
  return result;
}

}  // namespace liberate::core
