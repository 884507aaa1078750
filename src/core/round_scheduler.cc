#include "core/round_scheduler.h"

#include <future>
#include <unordered_map>
#include <utility>

#include "dpi/profiles.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace liberate::core {

namespace {

/// Independent seed streams from (master seed, round fingerprint).
std::uint64_t derive_seed(std::uint64_t seed, const Fingerprint& id,
                          std::uint64_t salt) {
  return splitmix64(splitmix64(seed ^ salt) ^ id.lo) ^ splitmix64(id.hi);
}

void fold_trace(Digest& d, const trace::ApplicationTrace& t) {
  d.update_sized(t.app_name);
  d.update_u8(t.transport == trace::Transport::kTcp ? 0 : 1);
  d.update_u16(t.server_port);
  d.update_u64(t.messages.size());
  for (const trace::Message& m : t.messages) {
    d.update_u8(m.sender == trace::Sender::kClient ? 0 : 1);
    d.update_u64(m.gap_us);
    d.update_sized(BytesView(m.payload));
  }
}

void fold_context(Digest& d, const TechniqueContext& ctx) {
  d.update_u64(ctx.matching_snippets.size());
  for (const Bytes& s : ctx.matching_snippets) d.update_sized(BytesView(s));
  d.update_u8(ctx.middlebox_ttl);
  d.update_sized(BytesView(ctx.decoy_payload));
  d.update_u64(ctx.split_pieces);
  d.update_u64(ctx.fragment_pieces);
  d.update_double(ctx.pause_seconds);
}

}  // namespace

Fingerprint round_fingerprint(const WorldSpec& spec, const RoundRequest& req) {
  Digest d;
  // Environment = classifier profile + path configuration.
  d.update_sized(spec.environment);
  d.update_u64(spec.seed);
  d.update_double(spec.warmup_hours);
  // Fault policy is part of the path: two rounds differing only in faults
  // must never share a memoized result.
  d.update_double(spec.faults.loss);
  d.update_double(spec.faults.duplicate);
  d.update_double(spec.faults.truncate);
  d.update_double(spec.faults.corrupt);
  d.update_u64(static_cast<std::uint64_t>(spec.faults.corrupt_max_bits));
  d.update_double(spec.faults.reorder);
  d.update_u64(static_cast<std::uint64_t>(spec.faults.reorder_hold));
  d.update_u64(static_cast<std::uint64_t>(spec.faults.max_jitter));
  // Trace digest (the exact bytes that go on the wire).
  fold_trace(d, req.trace);
  // Mutation: technique + context + replay knobs.
  d.update_sized(req.technique);
  fold_context(d, req.context);
  d.update_u16(req.server_port_override);
  d.update_u32(req.server_ip_override);
  d.update_u8(req.match_packet_ttl.has_value() ? 1 : 0);
  d.update_u8(req.match_packet_ttl.value_or(0));
  d.update_double(req.pause_before_match_s);
  d.update_double(req.pause_after_match_s);
  d.update_double(req.timeout_s);
  return d.finish();
}

RoundResult run_isolated_round(const WorldSpec& spec, const RoundRequest& req) {
  return run_isolated_round(spec, req, round_fingerprint(spec, req));
}

RoundResult run_isolated_round(const WorldSpec& spec, const RoundRequest& req,
                               const Fingerprint& id) {
  // The world and the runner get independent deterministic streams derived
  // from (seed, round_id); nothing here depends on scheduling.
  auto env = dpi::make_environment(spec.environment,
                                   derive_seed(spec.seed, id, 0xE17));
  if (spec.faults.any()) {
    // Client-side hostile link, seeded per round: deterministic for a given
    // (seed, fingerprint) no matter which worker runs the round.
    env->net.emplace_at<netsim::FaultyLink>(
        0, spec.faults, derive_seed(spec.seed, id, 0xFA017));
  }
  const netsim::TimePoint warmup_end = static_cast<netsim::TimePoint>(
      spec.warmup_hours * 3600.0 * 1e6);
  env->loop.run_until(warmup_end);

  // Span over the round's virtual lifetime: start/end are sim-clock stamps
  // relative to the end of warmup, so nested replay spans line up with the
  // reported virtual_seconds.
  [[maybe_unused]] netsim::EventLoop* loop = &env->loop;
  LIBERATE_OBS_SPAN("core.round",
                    [loop, warmup_end]() { return loop->now() - warmup_end; });

  // Provenance scope for everything this round records: the content-defined
  // round fingerprint, so parallel replays of the identical flow tuple keep
  // separate ledgers and serial/parallel runs agree byte-for-byte.
  LIBERATE_PROV_SCOPE(id.lo);

  ReplayRunner runner(*env, derive_seed(spec.seed, id, 0x5EED));
  return runner.run(req);
}

std::optional<RoundResult> ProbeCache::get(const Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto hit = lru_.get(key);
  if (hit) {
    hits_.fetch_add(1);
  } else {
    misses_.fetch_add(1);
  }
  return hit;
}

void ProbeCache::put(const Fingerprint& key, const RoundResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.put(key, result);
}

std::size_t ProbeCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

RoundScheduler::RoundScheduler(WorldSpec spec, SchedulerOptions options)
    : spec_(std::move(spec)),
      options_(options),
      cache_(options.cache_capacity) {
  if (options_.workers > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.workers);
  }
}

RoundScheduler::~RoundScheduler() {
  // Drain outstanding rounds before the cache and spec go away.
  if (pool_) pool_->shutdown();
}

RoundResult RoundScheduler::execute(const RoundRequest& req,
                                    const Fingerprint& key) {
  RoundResult result = run_isolated_round(spec_, req, key);
  executed_.fetch_add(1);
  LIBERATE_COUNTER_ADD("core.rounds_executed", 1);
  // Virtual (sim-clock) round latency: count, sum and quantiles.
  LIBERATE_HDR_RECORD("core.round_latency_us",
                      result.virtual_seconds > 0
                          ? static_cast<std::uint64_t>(
                                result.virtual_seconds * 1e6)
                          : 0);
  if (options_.cache_capacity > 0) cache_.put(key, result);
  return result;
}

dpi::Environment::Signal RoundScheduler::signal() const {
  return dpi::make_environment(spec_.environment, spec_.seed)->signal;
}

std::vector<RoundResult> RoundScheduler::run_batch(
    const std::vector<RoundRequest>& reqs, const Stop& /*stop*/) {
  const std::size_t n = reqs.size();
  std::vector<RoundResult> results(n);
  if (n == 0) return results;
  // A probe is a *submitted* request — cache hits and coalesced duplicates
  // included, so the ledger shows what memoization saved (probes - rounds).
  LIBERATE_COST_TICK(kProbes, n);

  // Resolve the whole wave up front: fingerprint every request once, answer
  // cache hits immediately, and coalesce in-batch duplicates onto a single
  // execution (only done when memoization is on, so cache-off counters stay
  // comparable).
  std::vector<Fingerprint> keys(n);
  std::vector<std::size_t> work;  // indices that actually replay
  work.reserve(n);
  std::unordered_map<Fingerprint, std::size_t, Fingerprint::Hasher> leader;
  std::vector<std::pair<std::size_t, std::size_t>> dups;  // (copy-to, from)
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = round_fingerprint(spec_, reqs[i]);
    if (options_.cache_capacity > 0) {
      if (auto cached = cache_.get(keys[i])) {
        from_cache_.fetch_add(1);
        LIBERATE_COUNTER_ADD("core.rounds_from_cache", 1);
        cached->from_cache = true;
        results[i] = std::move(*cached);
        continue;
      }
      auto [it, inserted] = leader.try_emplace(keys[i], i);
      if (!inserted) {
        from_cache_.fetch_add(1);
        LIBERATE_COUNTER_ADD("core.rounds_coalesced", 1);
        dups.emplace_back(i, it->second);
        continue;
      }
    }
    work.push_back(i);
  }

  if (pool_ && work.size() > 1) {
    // Wave execution: one pool task per worker, each claiming round indices
    // from a shared cursor (work stealing — a worker that lands cheap cache
    // rebuilds drains more of the wave instead of idling at a barrier).
    // Results land in their submission slot, so output order is unaffected
    // by which worker ran what.
    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    const std::size_t tasks = std::min(pool_->worker_count(), work.size());
    std::vector<std::future<void>> waves;
    waves.reserve(tasks);
    for (std::size_t t = 0; t < tasks; ++t) {
      // Context capture happens here, on the submitting thread: a chunk
      // executed by a stealing worker nests its round spans under the
      // submitting phase span, never under whatever unrelated span is open
      // on that worker (and never orphaned, as unpropagated tasks were).
      waves.push_back(pool_->submit(
          LIBERATE_OBS_PROPAGATE([this, &reqs, &keys, &work, &results,
                                  cursor]() {
            for (;;) {
              const std::size_t w = cursor->fetch_add(1);
              if (w >= work.size()) return;
              const std::size_t i = work[w];
              results[i] = execute(reqs[i], keys[i]);
            }
          })));
    }
    for (auto& f : waves) f.get();
  } else {
    for (std::size_t i : work) results[i] = execute(reqs[i], keys[i]);
  }

  for (const auto& [to, from] : dups) results[to] = results[from];
  return results;
}

}  // namespace liberate::core
