// round_scheduler.h — parallel replay-round scheduler with probe memoization.
//
// The paper's costs (§6, Table 2) are dominated by replay rounds: blinding
// search, prepend probing and the 26-technique evaluation each run dozens to
// hundreds of *independent* simulated rounds. The scheduler fans those
// rounds out over a fixed worker pool. Every round executes inside a fully
// isolated simulation world — its own EventLoop, network, endpoints and
// middlebox, built fresh from a WorldSpec — so no state leaks between
// rounds and results are identical regardless of worker count or
// interleaving.
//
// Round identity is content-defined: round_id = fingerprint(world spec,
// request), covering the trace bytes, the mutation (technique + context +
// port/TTL/pause overrides), the classifier profile (the environment name
// is the profile: it selects the rule set and middlebox configuration) and
// the environment seed/warm-up. The per-round RNG is derived
// deterministically from (seed, round_id), which makes two things true at
// once: (a) scheduling order cannot change any outcome, and (b) a repeated
// probe IS the same round, so memoizing its result is exact — the
// ProbeCache can answer repeated probes and evaluation re-runs after
// re-characterization without ever replaying twice.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/replay.h"
#include "netsim/faulty.h"
#include "util/digest.h"
#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace liberate::core {

/// Everything needed to (re)build one isolated simulation world.
struct WorldSpec {
  /// Environment/classifier profile name for dpi::make_environment().
  std::string environment = "testbed";
  /// Master seed; every round derives its own RNG stream from this and the
  /// round fingerprint.
  std::uint64_t seed = 1;
  /// Virtual warm-up before the round starts (diurnal-load models — e.g.
  /// the GFC's load-dependent eviction — care what time of day it is).
  double warmup_hours = 0;
  /// Fault injection on the client side of the path (all-off by default).
  /// When any fault is enabled, a netsim::FaultyLink seeded from (seed,
  /// round fingerprint) is inserted in front of the environment, so the
  /// whole analysis pipeline can be exercised over hostile links — still
  /// byte-identical across worker counts.
  netsim::FaultPolicy faults{};
};

/// Content fingerprint of a round: the memoization key and the round_id
/// from which the per-round RNG is derived.
Fingerprint round_fingerprint(const WorldSpec& spec, const RoundRequest& req);

/// Execute one round in a fresh isolated world. Deterministic: depends only
/// on (spec, req), never on threads, ordering or wall clock.
RoundResult run_isolated_round(const WorldSpec& spec, const RoundRequest& req);

/// Same, with the round fingerprint supplied by the caller. The scheduler
/// already fingerprints every request for memoization; passing the id
/// through avoids digesting the full trace a second time per round. `id`
/// MUST equal round_fingerprint(spec, req) — it seeds the round's RNG
/// streams and provenance scope.
RoundResult run_isolated_round(const WorldSpec& spec, const RoundRequest& req,
                               const Fingerprint& id);

/// Thread-safe LRU-bounded memoization of round results.
class ProbeCache {
 public:
  explicit ProbeCache(std::size_t capacity) : lru_(capacity) {}

  std::optional<RoundResult> get(const Fingerprint& key);
  void put(const Fingerprint& key, const RoundResult& result);

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::size_t size() const;
  double hit_rate() const {
    std::uint64_t h = hits(), m = misses();
    return h + m == 0 ? 0.0 : static_cast<double>(h) / static_cast<double>(h + m);
  }

 private:
  mutable std::mutex mutex_;
  LruCache<Fingerprint, RoundResult, Fingerprint::Hasher> lru_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

struct SchedulerOptions {
  /// Worker threads. 0 = serial mode: every round runs inline on the
  /// calling thread (the reference the equivalence tests compare against).
  std::size_t workers = 0;
  /// Probe-cache capacity in rounds; 0 disables memoization.
  std::size_t cache_capacity = 8192;
};

/// The isolated-world executor. run_batch() runs a whole wave (it never
/// stops early: every round is independent, so speculation costs workers,
/// not correctness) and collects it in submission order. Identical rounds
/// within a wave are coalesced onto one execution.
class RoundScheduler : public ProbeExecutor {
 public:
  explicit RoundScheduler(WorldSpec spec, SchedulerOptions options = {});
  ~RoundScheduler() override;

  std::vector<RoundResult> run_batch(const std::vector<RoundRequest>& reqs,
                                     const Stop& stop = {}) override;
  /// Builds one environment from the spec to read its signal.
  dpi::Environment::Signal signal() const override;

  const WorldSpec& world() const { return spec_; }
  std::size_t worker_count() const {
    return pool_ ? pool_->worker_count() : 0;
  }

  /// Rounds that actually replayed (cache misses + uncached).
  std::uint64_t rounds_executed() const { return executed_.load(); }
  /// Rounds answered from the memo cache (or coalesced onto a duplicate in
  /// the same wave).
  std::uint64_t rounds_from_cache() const { return from_cache_.load(); }
  std::uint64_t rounds_submitted() const {
    return rounds_executed() + rounds_from_cache();
  }
  const ProbeCache& cache() const { return cache_; }

 private:
  RoundResult execute(const RoundRequest& req, const Fingerprint& key);

  WorldSpec spec_;
  SchedulerOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null in serial mode
  ProbeCache cache_;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> from_cache_{0};
};

}  // namespace liberate::core
