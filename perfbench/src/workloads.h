// workloads.h — the benchmark's workloads and the layer replays their traced
// runs add. Each workload fills a Result with the end-to-end metrics (from
// untraced runs) or the per-layer metrics (traced runs); see README.md for
// what every metric means on every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/liberate.h"
#include "trace/trace.h"

namespace perfbench {

void run_fleet(const Options& options, Tracer& tracer, Result& result);
void run_analysis(const Options& options, Tracer& tracer, Result& result);

/// One §5.3 network with its application trace, generated from the seed.
struct Network {
  std::string environment;
  liberate::trace::ApplicationTrace trace;
};

/// testbed/Amazon, tmus/Amazon video, gfc/Economist, iran/Facebook.
std::vector<Network> paper_networks(std::uint64_t seed);

/// The Amazon video trace with a seed-generated response body.
liberate::trace::ApplicationTrace amazon_trace(std::size_t body_bytes,
                                               std::uint64_t seed);

/// Round-scheduler counters of one or more cold analyses.
struct AnalysisCost {
  double detect_ms = 0;
  double characterize_ms = 0;
  double evaluate_ms = 0;
  double wall_ms = 0;
  double cpu_s = 0;
  std::uint64_t rounds_submitted = 0;
  std::uint64_t rounds_from_cache = 0;

  AnalysisCost& operator+=(const AnalysisCost& o);
};

/// One cold analysis on a fresh pool-wide RoundScheduler. Untraced it is a
/// single analyze_parallel call; traced, the benchmark calls the three
/// phase functions itself (the same composition analyze_parallel uses) so
/// each gets a span and a wall time.
liberate::core::SessionReport cold_analysis(const Network& network,
                                            std::uint64_t world_seed,
                                            std::size_t workers, Tracer& tracer,
                                            std::uint64_t op,
                                            AnalysisCost* cost);

/// deploy.readapt_exit.<path>: the share of re-adaptations that left the
/// ladder by each exit (all 0 when none ran).
void readapt_exit_metrics(const std::map<std::string, std::uint64_t>& exits,
                          std::uint64_t readapts, Result& result);

/// Per-datagram layers: the datagram mix a workload's traffic puts on the
/// wire, captured from benchmark-built worlds, replayed through each
/// layer's public function alone, then composed.
struct FleetShape;
void fleet_datagram_layers(const FleetShape& shape,
                           const liberate::trace::ApplicationTrace& trace,
                           std::uint64_t seed, Tracer& tracer, Result& result);
void round_datagram_layers(
    const std::vector<Network>& networks,
    const std::vector<liberate::core::SessionReport>& reports,
    std::uint64_t seed, Tracer& tracer, Result& result);

/// Analysis phases: `passes` traced cold analyses of every network through
/// the three phase calls. Returns the last pass's reports.
std::vector<liberate::core::SessionReport> analysis_layers(
    const std::vector<Network>& networks, std::uint64_t seed,
    std::size_t passes, Tracer& tracer, Result& result);

/// Round layer: the round mix of each analysis (plain replay plus every
/// evaluated technique) replayed through run_isolated_round one round at a
/// time.
void round_layers(const std::vector<Network>& networks,
                  const std::vector<liberate::core::SessionReport>& reports,
                  std::uint64_t seed, Tracer& tracer, Result& result);

/// The workload shape of a packet-level fleet.
struct FleetShape {
  std::size_t shards = 8;
  std::size_t flows_per_shard = 0;  // per wave
  std::size_t waves = 0;            // measured waves; wave 0 is warm-up
  std::size_t workers = 0;          // 0 = shards run on the control thread
  std::size_t segment_bytes = 512;
  std::size_t alt_every = 0;        // every Nth flow carries the decoy
  bool faults = false;              // FaultPolicy::reorder_heavy()
  std::size_t shim_cap = 0;         // per shard; 0 = the session total
  bool classifier_change = false;   // normalizer lands mid-session

  std::size_t session_flows() const {
    return shards * flows_per_shard * (waves + 1);
  }
  /// Per-shard shim flow cap. Admission is hashed, so one shard may get
  /// more than its share; only the session total is a safe "never evict".
  std::size_t cap() const {
    return shim_cap != 0 ? shim_cap : session_flows();
  }
};

}  // namespace perfbench
