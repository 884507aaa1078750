// fleet.h — the deployment control plane's live-flow engine.
//
// §4.2 describes deployment as wrapping one application's traffic in the
// selected technique. A real deployment is a fleet: thousands of concurrent
// flows across many vantage points, all riding per-flow EvasionShims, all
// sharing one characterization of the classifier. The FleetEngine drives
// that shape inside the simulator:
//
//  * N shards, each a persistent simulated world (client host -> optional
//    FaultyLink -> the profiled middlebox path -> server host) with one
//    long-lived EvasionShim carrying per-flow state across waves;
//  * traffic arrives in waves of concurrent flows, fanned out across the
//    PR 1 thread pool (shards are independent worlds, so waves parallelize
//    without locks) and merged in shard order — byte-identical results for
//    any worker count;
//  * a DriftMonitor compares each merged wave against the deploy-time
//    baseline; confirmed drift walks the AdaptationPolicy state machine and
//    triggers incremental re-characterization on a dedicated probe world;
//  * the re-characterized technique is hot-swapped onto every shard's shim
//    (satellite: owning set_technique makes this safe mid-flow).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "deploy/delta.h"
#include "deploy/drift.h"
#include "deploy/fingerprint.h"
#include "deploy/policy.h"
#include "deploy/recharacterize.h"
#include "netsim/faulty.h"
#include "util/bytes.h"

namespace liberate::deploy {

struct FleetWaveReport;

/// Shard worlds record provenance for 1 flow in this many. The recorder
/// keeps only the newest 1 024 flow ledgers and 65 536 packet nodes, so a
/// soak of ~200k flows recording everything would digest, lock and
/// allocate for every datagram only to evict nearly all of it. At 64 such a
/// soak still records ~3.1k flows (~15k datagrams): more flows than the
/// ledger cap keeps, and well under the node cap. Analysis, readapt and
/// explain scopes record every flow.
inline constexpr std::uint64_t kShardProvenanceSampleEvery = 64;

/// How a shard turns a wave of flows into packets.
enum class FlowMode {
  /// One stack::TcpConnection per flow (full endpoint fidelity). Right up
  /// to thousands of concurrent flows.
  kFullStack,
  /// Crafted SYN/payload/RST datagrams through the shim (flow_driver.h).
  /// Synthetic endpoints, real middlebox path — scales to a million
  /// concurrent flows per process.
  kPacketLevel,
};

struct FleetOptions {
  /// dpi profile name (make_environment) used for every shard and the probe
  /// world.
  std::string environment = "testbed";
  std::uint64_t seed = 1;

  std::size_t shards = 4;
  /// Mean flows per shard per wave. The wave's total (flows_per_wave *
  /// shards) is admitted shard-affinely: each global flow id hashes to one
  /// shard at admission and never migrates, so per-shard counts vary around
  /// the mean (and can be zero) while the fleet total is exact.
  std::size_t flows_per_wave = 8;
  std::size_t waves = 6;

  FlowMode flow_mode = FlowMode::kFullStack;
  /// Packet-level mode: max payload bytes per crafted segment.
  std::size_t packet_segment_bytes = 512;
  /// Packet-level mode: every Nth flow uploads this payload instead of the
  /// trace's (mixed matching / non-matching traffic). 0 = all trace flows.
  Bytes packet_alt_payload;
  std::size_t packet_alt_every = 0;
  /// Thread-pool width for the per-shard wave fan-out; 0 = run shards
  /// serially on the calling thread.
  std::size_t workers = 0;

  /// Adversarial path faults, applied client-side on every shard (transient
  /// chaos that must NOT trigger re-analysis).
  netsim::FaultPolicy faults;

  /// Flow-table cap handed to each shard's shim.
  std::size_t max_flows_per_shim = core::EvasionShim::kDefaultMaxFlows;

  /// Scripted classifier change: applied to every world (shards + probe) at
  /// the start of wave `change_at_wave`. SIZE_MAX = never.
  std::size_t change_at_wave = static_cast<std::size_t>(-1);
  std::function<void(dpi::Environment&)> classifier_change;

  /// Invoked after each wave's report is fully assembled (stats merged,
  /// drift evaluated, telemetry sampled) — the hook liberate_top uses to
  /// render a live dashboard. Called on the control thread, never from a
  /// shard worker.
  std::function<void(const FleetWaveReport&)> on_wave;

  /// Optional persistent fingerprint cache. A warm entry for
  /// (environment, app) skips the initial full analysis entirely; the cache
  /// is refreshed in place when drift forces a re-analysis.
  ClassifierFingerprintCache* cache = nullptr;

  /// Run the ambiguity probe catalog (src/fingerprint) against the live
  /// classifier at deploy time and on every re-characterization. Enables
  /// two ladders the cache alone cannot offer: a warm deploy that falls
  /// back from an exact (environment, app) hit to the nearest ambiguity
  /// fingerprint, and incremental_readapt()'s fingerprint-verify stage.
  bool ambiguity_probes = false;
  /// Maximum ambiguity_distance() a nearest-fingerprint match may have.
  std::size_t ambiguity_max_distance = 0;
};

/// One wave as the control plane saw it.
struct FleetWaveReport {
  std::size_t wave = 0;
  WaveStats stats;
  /// Pre-merge per-shard stats, in shard order (dashboard fodder).
  std::vector<WaveStats> shard_stats;
  std::optional<DriftSignal> signal;
  /// Series the anomaly detector flagged on this wave (empty = quiet).
  std::vector<std::string> anomalies;
  /// The corroboration bit handed to the DriftMonitor (any detector
  /// flagged). Only shortens confirmation when the wave is also
  /// rate-suspect.
  bool corroborated = false;
  /// Set when this wave's signal triggered re-characterization.
  std::optional<ReadaptPath> readapt_path;
  /// Probe rounds the re-characterization spent this wave (0 = none ran)
  /// and its per-ladder-stage breakdown (sums to readapt_rounds). Plain
  /// data at every obs level — it shapes the FLEET summary.
  int readapt_rounds = 0;
  std::vector<ReadaptStageCost> readapt_ladder;
  /// Ambiguity probe flows the readapt's fingerprint-verify stage spent
  /// (isolated worlds — never replay rounds).
  std::size_t readapt_probe_flows = 0;
  DeployState state_after = DeployState::kDeployed;
  std::string technique_after;
};

struct FleetReport {
  std::string environment;
  std::string app;
  std::size_t shards = 0;

  std::string technique_initial;
  std::string technique_final;

  std::vector<FleetWaveReport> waves;
  std::vector<StateTransition> transitions;
  WaveStats totals;

  /// Probe-round accounting, for the O(verification) < O(analysis) claim.
  int initial_analysis_rounds = 0;
  std::uint64_t initial_analysis_bytes = 0;
  bool initial_from_cache = false;
  std::size_t readapts = 0;
  int readapt_rounds = 0;
  std::uint64_t readapt_bytes = 0;

  /// Active ambiguity fingerprint (set when ambiguity_probes ran): the
  /// latest probed digest, the cache entry it matched ("" = none), and how
  /// the deployment got its knowledge — "exact" (environment+app cache
  /// hit), "nearest" (nearest-fingerprint warm match), or "probed" (digest
  /// taken but knowledge came from analysis).
  std::string fingerprint_digest;
  std::size_t fingerprint_dims = 0;
  std::string fingerprint_profile;
  std::string fingerprint_source;
  std::size_t fingerprint_probe_flows = 0;

  std::uint64_t faults_injected = 0;
  std::uint64_t flows_evicted = 0;

  /// Flows still resident in the shards' shim flow tables when the run
  /// ended — the "concurrent flows" a scaling soak actually held. (Also
  /// diagnostic-only, for the same summary() byte-identity reason.)
  std::uint64_t flows_resident = 0;

  /// Snapshot-delta accounting: counter entries actually shipped to the
  /// merge point vs. what dense full-snapshot merging would have shipped.
  /// (Diagnostic only — deliberately not part of summary(), which must be
  /// byte-identical across merge modes.)
  std::uint64_t delta_entries_shipped = 0;
  std::uint64_t delta_entries_full = 0;

  /// The telemetry hub's "fleet."-prefixed time series as JSON (per-shard
  /// rates, latency, fault/eviction deltas — all sim-clock sampled, so the
  /// document is byte-identical across worker counts and match backends).
  /// Empty when the build is at obs level 0.
  std::string telemetry_json;

  /// Deterministic FLEET-prefixed text (one line per wave + transitions +
  /// cost summary) — identical across worker counts and obs levels, diffed
  /// in CI.
  std::string summary() const;
};

/// Runs a fleet session: analyze (or load from cache), deploy on all
/// shards, drive waves, adapt on drift. One engine = one (environment, app)
/// deployment.
class FleetEngine {
 public:
  explicit FleetEngine(FleetOptions options);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  FleetReport run(const trace::ApplicationTrace& trace);

 private:
  struct Shard;
  struct Run;  // one run()'s control-plane state

  // run()'s stages: characterize once, then every wave admit -> drive ->
  // merge -> sample -> detect -> adapt (which readapts and redeploys on a
  // drift signal).
  void characterize(Run& run);
  void prepare_waves(Run& run);
  std::vector<std::size_t> admit(std::size_t wave);
  std::vector<FleetDelta> drive(Run& run, std::size_t wave,
                                const std::vector<std::size_t>& admitted);
  FleetWaveReport merge(Run& run, std::size_t wave,
                        const std::vector<FleetDelta>& published);
  void sample(const Run& run, const FleetWaveReport& wr) const;
  void detect(Run& run, FleetWaveReport& wr);
  void adapt(Run& run, FleetWaveReport& wr);
  FleetReport finish(Run& run);

  /// Drive one shard's wave (`admitted` flows) and return its wave-boundary
  /// counter publish: a sparse delta of the cumulative counters that moved.
  /// Runs on a worker thread; touches only the shard's own state.
  FleetDelta run_wave(Shard& shard, const trace::ApplicationTrace& trace,
                      std::size_t wave, std::size_t admitted,
                      BytesView packet_payload);
  WaveStats run_wave_full_stack(Shard& shard,
                                const trace::ApplicationTrace& trace,
                                std::size_t admitted);
  void swap_technique(const std::string& name,
                      const CachedCharacterization& cached);

  FleetOptions options_;
  std::unique_ptr<dpi::Environment> probe_env_;
  std::unique_ptr<core::Liberate> lib_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Scripted classifier changes already applied to the live worlds, in
  /// application order. Ambiguity probe worlds are built fresh per script,
  /// so each one re-applies this epoch log to stay in sync with the fleet.
  std::vector<std::function<void(dpi::Environment&)>> applied_changes_;
};

}  // namespace liberate::deploy
