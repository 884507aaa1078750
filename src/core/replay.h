// replay.h — record/replay infrastructure (Fig. 3, steps 1–2).
//
// A ReplayRunner plays an ApplicationTrace between a fresh client and a
// fresh replay server across an Environment's path, optionally through an
// EvasionShim, and collects every observable signal the paper uses:
// completion/integrity, RSTs and 403s (blocking), goodput (shaping), the
// data-usage counter (zero rating, with realistic lag/noise), the raw
// crafted-packet tap at the server (Table 3's RS? column), and the
// classifier's own log (testbed direct signal).
//
// The analysis phases (detection, characterization, evaluation) never talk
// to a runner directly: they submit RoundRequest waves to a ProbeExecutor.
// ReplayRunner is the shared-world executor (every round lands in one
// environment, so state such as the GFC's endpoint escalation carries
// across rounds); RoundScheduler (core/round_scheduler.h) is the
// isolated-world executor (a fresh world per round, fanned out on a pool).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evasion/shim.h"
#include "dpi/profiles.h"
#include "stack/host.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace liberate::core {

struct ReplayOptions {
  /// Evasion technique applied by the client-side shim (null = none).
  Technique* technique = nullptr;
  /// Matching fields etc. for the shim/technique.
  TechniqueContext context;
  /// Override the trace's server port (port-sensitivity probing, and fresh
  /// ports per round against the GFC's endpoint escalation).
  std::uint16_t server_port_override = 0;
  /// Replay from a different server address (0 = the default). §4.2: an
  /// adversary may whitelist known replay servers; "we can detect the former
  /// using previously unseen replay servers".
  std::uint32_t server_ip_override = 0;
  /// Localization: force this TTL onto the matching packet.
  std::optional<std::uint8_t> match_packet_ttl;
  /// Extra pauses (flushing techniques fill these from Technique::timing()).
  double pause_before_match_s = 0;
  double pause_after_match_s = 0;
  /// Hard deadline for the round (auto-extended by the pauses).
  netsim::Duration timeout = netsim::seconds(60);
};

struct ReplayOutcome {
  bool completed = false;           // every trace message delivered
  bool payload_intact = true;       // delivered bytes matched the trace
  bool blocked = false;             // reset / unsolicited 403
  bool got_403 = false;
  std::uint64_t rsts_at_client = 0; // raw RSTs seen on the client wire
  double duration_s = 0;
  double goodput_mbps = 0;          // server->client application goodput
  std::uint64_t usage_delta = 0;    // data-usage counter delta (noisy)
  std::uint64_t expected_wire_bytes = 0;  // trace bytes offered this round
  // RS? bookkeeping: crafted packets (IP id == kCraftedIpId) at the server.
  std::size_t crafted_at_server = 0;
  bool crafted_reassembled = false;  // arrived merged into one datagram
  netsim::FiveTuple flow;            // client->server tuple of the main flow
  std::vector<dpi::ClassificationEvent> classifications;  // this round only
};

/// One replay round: a (possibly mutated) trace plus the replay knobs of
/// ReplayOptions, with the technique carried by name so the request is a
/// plain value that can cross threads and be fingerprinted.
struct RoundRequest {
  trace::ApplicationTrace trace;
  /// Registry name of the evasion technique to apply ("" = none).
  std::string technique;
  TechniqueContext context;
  std::uint16_t server_port_override = 0;
  std::uint32_t server_ip_override = 0;
  std::optional<std::uint8_t> match_packet_ttl;
  double pause_before_match_s = 0;
  double pause_after_match_s = 0;
  double timeout_s = 60;
};

struct RoundResult {
  ReplayOutcome outcome;
  /// The environment's differentiation oracle, evaluated in-world (the
  /// direct signal needs the live classifier state, which dies with an
  /// isolated world).
  bool differentiated = false;
  /// Virtual seconds this round consumed (excluding warm-up).
  double virtual_seconds = 0;
  std::uint64_t bytes_offered = 0;
  bool from_cache = false;
};

/// Where the analysis phases send their probe rounds.
class ProbeExecutor {
 public:
  /// stop(index, result): true when the rounds after `index` are moot.
  using Stop = std::function<bool(std::size_t, const RoundResult&)>;

  ProbeExecutor() = default;
  ProbeExecutor(const ProbeExecutor&) = delete;
  ProbeExecutor& operator=(const ProbeExecutor&) = delete;
  virtual ~ProbeExecutor() = default;

  /// Run a wave; results come back in submission order. A shared world
  /// may stop after the first round where `stop` holds and return only the
  /// rounds it ran (later rounds would see the state earlier ones left
  /// behind, and the caller's linear scan ends there anyway); an isolated
  /// world may run the whole wave speculatively. A phase must reach the
  /// same answer from either, reading only up to the first stopping round.
  virtual std::vector<RoundResult> run_batch(
      const std::vector<RoundRequest>& wave, const Stop& stop = {}) = 0;

  /// How the environment reports differentiation (zero-rating probes need
  /// client bulk after the matching message for the counter to move).
  virtual dpi::Environment::Signal signal() const = 0;
};

/// Per-phase cost accounting over executed rounds: logical rounds (cache
/// hits included — a memoized probe still answers one logical round),
/// offered bytes and summed per-round virtual time.
struct ProbeCost {
  int rounds = 0;
  std::uint64_t bytes = 0;
  double virtual_seconds = 0;

  void add(const std::vector<RoundResult>& results) {
    for (const RoundResult& r : results) {
      rounds += 1;
      bytes += r.bytes_offered;
      virtual_seconds += r.virtual_seconds;
    }
  }
};

/// The shared-world executor: every round replays in the one environment
/// the runner was built on, in submission order.
class ReplayRunner : public ProbeExecutor {
 public:
  explicit ReplayRunner(dpi::Environment& env, std::uint64_t seed = 1);

  ReplayOutcome run(const trace::ApplicationTrace& trace,
                    const ReplayOptions& options = {});
  /// The one translation from a RoundRequest to ReplayOptions (isolated
  /// worlds run their single round through it too).
  RoundResult run(const RoundRequest& request);

  std::vector<RoundResult> run_batch(const std::vector<RoundRequest>& wave,
                                     const Stop& stop = {}) override;
  dpi::Environment::Signal signal() const override { return env_.signal; }

  /// The differentiation oracle: did this round experience the environment's
  /// policy? (Per-signal semantics; see DESIGN.md.)
  bool differentiated(const ReplayOutcome& outcome) const;

  dpi::Environment& env() { return env_; }
  /// Total replay rounds executed and bytes offered so far (cost accounting
  /// for §6's efficiency numbers).
  int rounds() const { return rounds_; }
  std::uint64_t bytes_offered() const { return bytes_offered_; }
  double virtual_seconds_elapsed() const {
    return netsim::to_seconds(env_.loop.now());
  }

 private:
  ReplayOutcome run_tcp(const trace::ApplicationTrace& trace,
                        const ReplayOptions& options);
  ReplayOutcome run_udp(const trace::ApplicationTrace& trace,
                        const ReplayOptions& options);

  /// One round's endpoints, and where the DPI meter stood when it opened.
  struct Round {
    std::unique_ptr<EvasionShim> shim;
    std::unique_ptr<stack::Host> client;
    std::unique_ptr<stack::Host> server;
    std::uint64_t usage_before = 0;
    std::size_t log_before = 0;
  };
  /// Build the round's shim and hosts, attach them and mark the meter.
  Round open_round(const ReplayOptions& options, std::uint32_t server_ip);
  /// Read the meter into `outcome`: the usage delta (plus the zero-rating
  /// noise draw) and the classifications logged since the round opened.
  void read_meter(const Round& round, ReplayOutcome& outcome);
  /// Drain the loop for `drain`, detach the endpoints and retire them.
  void retire(Round round, netsim::Duration drain);

  dpi::Environment& env_;
  Rng rng_;
  std::uint16_t next_client_port_ = 42001;
  std::uint16_t next_server_port_ = 20000;  // fresh ports per round
  int rounds_ = 0;
  std::uint64_t bytes_offered_ = 0;
  // Hosts must outlive any event-loop callbacks that captured them; they are
  // retired here and reclaimed with the runner.
  std::vector<std::unique_ptr<stack::Host>> retired_hosts_;
  std::vector<std::unique_ptr<EvasionShim>> retired_shims_;
  // Techniques built from a RoundRequest's name: a retired shim still
  // points at its technique.
  std::vector<std::unique_ptr<Technique>> retired_techniques_;
};

}  // namespace liberate::core
