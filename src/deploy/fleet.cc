#include "deploy/fleet.h"

#include <algorithm>
#include <future>
#include <map>

#include "deploy/flow_driver.h"

#include "dpi/profiles.h"
#include "obs/anomaly.h"
#include "obs/obs.h"
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
#include "obs/timeseries.h"
#endif
#include "stack/host.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace liberate::deploy {

using netsim::Duration;
using netsim::seconds;
using netsim::TimePoint;
using stack::Host;
using stack::OsProfile;
using stack::TcpConnection;
using trace::ApplicationTrace;
using trace::Sender;

namespace {

constexpr std::uint32_t kClientIp = 0x0a000001;  // 10.0.0.1
constexpr std::uint32_t kServerIp = 0xc6336414;  // 198.51.100.20

/// Full-stack mode: virtual-time spacing between flow starts within a wave,
/// and the virtual seconds a wave gets beyond its transfer budget.
constexpr Duration kFlowStagger = netsim::milliseconds(5);
constexpr double kWaveSlackSeconds = 30.0;

// Per-shard seeds derived from the fleet seed, decorrelated by splitmix64
// (same construction as the round scheduler's world seeds).
std::uint64_t shard_seed(std::uint64_t fleet_seed, std::size_t index,
                        std::uint64_t salt) {
  return splitmix64(fleet_seed ^
                    splitmix64(static_cast<std::uint64_t>(index + 1)) ^ salt);
}

/// Shard-affine admission: a flow's shard is a pure hash of its global flow
/// id, fixed at admission. The flow never migrates, so all of its per-flow
/// state (shim entry, classifier entry, verdict) lives in exactly one
/// shard's world — and the assignment is identical at any worker count.
std::size_t admit_shard(std::uint64_t fleet_seed, std::uint64_t global_flow,
                        std::size_t shards) {
  return static_cast<std::size_t>(
      splitmix64(global_flow ^ splitmix64(fleet_seed ^ 0xADF17ull)) % shards);
}

Bytes concat_payload(const ApplicationTrace& trace, Sender sender) {
  Bytes out;
  for (const auto& m : trace.messages) {
    if (m.sender != sender) continue;
    out.insert(out.end(), m.payload.begin(), m.payload.end());
  }
  return out;
}

/// Wave boundaries sit one virtual second apart on the telemetry clock.
std::uint64_t wave_ts_us(std::size_t wave) {
  return static_cast<std::uint64_t>(wave) * 1'000'000u;
}

/// Anomaly detector settings for the merged per-wave series. The deviation
/// floor is raised above the library default because these series live on
/// [0,1]-ish scales with real FaultyLink noise: a burst has to clear both
/// the drift slack AND a 3-sigma move past this floor before it can
/// corroborate.
obs::AnomalyConfig fleet_anomaly_config() {
  obs::AnomalyConfig cfg;
  cfg.min_deviation = 0.05;
  return cfg;
}

/// Full-stack mode: one flow's connection and what it has seen so far.
struct FlowSlot {
  TcpConnection* conn = nullptr;
  std::size_t client_rx = 0;
  std::size_t server_rx = 0;
  bool server_replied = false;
  FlowOutcome out;  // tuple, reset and latency stamps; scored at wave end
};

/// Full-stack mode: one wave's payloads and flows. Shared_ptr-held:
/// connection callbacks installed for the wave can outlive it (a
/// FaultyLink-delayed segment may arrive after the wave deadline), and
/// connections persist on the hosts.
struct FullStackWave {
  Bytes client_payload;
  Bytes server_payload;
  std::uint16_t wave_base = 0;  // client port of flow 0
  std::vector<FlowSlot> slots;

  /// Every expected byte arrived: the full response, or the full request
  /// for upload-only traces.
  bool delivered(const FlowSlot& s) const {
    return server_payload.empty() ? s.server_rx >= client_payload.size()
                                  : s.client_rx >= server_payload.size();
  }
};

/// Full-stack mode: open a wave's flows. The persistent server host gets a
/// per-wave listener that answers every accepted connection's full request
/// with the full response; client connections start kFlowStagger apart.
void open_flows(netsim::EventLoop& loop, Host& client, Host& server,
                std::uint16_t server_port,
                const std::shared_ptr<FullStackWave>& wd) {
  const std::size_t client_total = wd->client_payload.size();
  const std::size_t server_total = wd->server_payload.size();
  const std::uint16_t wave_base = wd->wave_base;
  netsim::EventLoop* loop_ptr = &loop;
  server.tcp_unlisten(server_port);
  server.tcp_listen(
      server_port, [wd, wave_base, client_total, server_total,
                    loop_ptr](TcpConnection& c) {
        // Remote port identifies the slot (tuple() is local -> remote).
        const std::uint16_t remote = c.tuple().dst_port;
        if (remote < wave_base ||
            static_cast<std::size_t>(remote - wave_base) >= wd->slots.size()) {
          return;  // straggler from an earlier wave
        }
        const std::size_t idx = remote - wave_base;
        c.on_data([wd, idx, &c, client_total, server_total,
                   loop_ptr](BytesView data) {
          FlowSlot& slot = wd->slots[idx];
          slot.server_rx += data.size();
          if (!slot.server_replied && slot.server_rx >= client_total &&
              server_total > 0) {
            slot.server_replied = true;
            c.send(BytesView(wd->server_payload));
          }
          // Upload-only traces: the flow is complete once the server has the
          // full request.
          if (!slot.out.completed_at && server_total == 0 &&
              slot.server_rx >= client_total) {
            slot.out.completed_at = loop_ptr->now();
          }
        });
      });

  Host* client_ptr = &client;
  for (std::size_t f = 0; f < wd->slots.size(); ++f) {
    loop.schedule(
        static_cast<Duration>(f) * kFlowStagger,
        [wd, f, client_ptr, server_port, wave_base, server_total, loop_ptr]() {
          FlowSlot& slot = wd->slots[f];
          slot.out.started_at = loop_ptr->now();
          TcpConnection& conn = client_ptr->tcp_connect(
              kServerIp, server_port,
              static_cast<std::uint16_t>(wave_base + f));
          slot.conn = &conn;
          slot.out.tuple = conn.tuple();
          conn.on_reset([wd, f] { wd->slots[f].out.reset = true; });
          conn.on_data([wd, f, server_total, loop_ptr](BytesView d) {
            FlowSlot& slot = wd->slots[f];
            slot.client_rx += d.size();
            if (!slot.out.completed_at && server_total > 0 &&
                slot.client_rx >= server_total) {
              slot.out.completed_at = loop_ptr->now();
            }
          });
          conn.on_established(
              [wd, &conn] { conn.send(BytesView(wd->client_payload)); });
        });
  }
}

}  // namespace

/// One persistent shard world: its own event loop, network, middlebox,
/// long-lived shim, and client/server hosts. Shards never share state, so
/// waves parallelize across the thread pool without synchronization.
struct FleetEngine::Shard {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::unique_ptr<dpi::Environment> env;
  std::unique_ptr<core::EvasionShim> shim;
  std::unique_ptr<Host> client;
  std::unique_ptr<Host> server;
  /// Packet-level mode replaces the endpoint hosts with the crafted-packet
  /// driver (created lazily at the first run(), when the server port is
  /// known).
  std::unique_ptr<PacketFlowDriver> driver;
  netsim::FaultyLink* faulty = nullptr;
  /// Per-shard client-port base: shards are separate networks, but keeping
  /// tuples globally unique keeps the provenance ledger unambiguous.
  std::uint16_t port_base = 0;
  std::uint64_t flow_serial = 0;

  /// Cumulative (monotone) counter block this shard publishes at each wave
  /// boundary, and the diff state for sparse publishes. Only ever touched
  /// from the shard's wave (worker thread) — the control thread sees the
  /// published FleetDelta.
  ShardCounters counters;
  DeltaPublisher publisher;

  std::uint64_t faults_injected() const {
    if (faulty == nullptr) return 0;
    return faulty->dropped() + faulty->duplicated() + faulty->truncated() +
           faulty->corrupted() + faulty->reordered();
  }
};

/// One run()'s control-plane state, threaded through its stages. Touched
/// only on the control thread.
struct FleetEngine::Run {
  Run(const ApplicationTrace& t, std::size_t shards)
      : trace(t), merger(shards) {}

  const ApplicationTrace& trace;
  FleetReport report;
  /// Ambiguity probing (opt-in; empty hooks skip the ladder's stage): one
  /// hook serves the deploy-time digest and the fingerprint-verify stage.
  ReadaptHooks hooks;
  /// The deployed characterization, and the technique every shim runs.
  CachedCharacterization current;
  std::string technique;
  DriftMonitor monitor;
  AdaptationPolicy policy;
  /// Anomaly detectors over the merged per-wave series. Deliberately plain
  /// (non-obs-gated) state: a flag corroborates the DriftMonitor, which
  /// shapes the FLEET summary — control flow must be identical at every
  /// obs level, worker count, and match backend.
  std::map<std::string, obs::AnomalyDetector> detectors;
  /// The merge point: shard publishes are sparse deltas, and the merger
  /// reconstructs per-wave stats from the cumulative stream exactly
  /// (delta_test pins this against dense publishes).
  DeltaMerger merger;
  std::unique_ptr<ThreadPool> pool;  // null: shards run serially
  Bytes packet_payload;              // packet-level mode: every flow's upload
};

FleetEngine::FleetEngine(FleetOptions options) : options_(std::move(options)) {
  if (options_.shards == 0) options_.shards = 1;
  probe_env_ = dpi::make_environment(
      options_.environment, shard_seed(options_.seed, 0, 0xB10Bull));
  lib_ = std::make_unique<core::Liberate>(*probe_env_, options_.seed);

  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->seed = shard_seed(options_.seed, i, 0x5A4Dull);
    shard->env = dpi::make_environment(options_.environment, shard->seed);
    if (options_.faults.any()) {
      shard->faulty = &shard->env->net.emplace_at<netsim::FaultyLink>(
          0, options_.faults, shard_seed(options_.seed, i, 0xFA017ull));
    }
    shard->shim = std::make_unique<core::EvasionShim>(
        shard->env->net.client_port(), nullptr, core::TechniqueContext{});
    shard->shim->set_max_flows(options_.max_flows_per_shim);
    if (options_.flow_mode == FlowMode::kFullStack) {
      shard->client = std::make_unique<Host>(*shard->shim, kClientIp,
                                             OsProfile::linux_profile());
      shard->server = std::make_unique<Host>(shard->env->net.server_port(),
                                             kServerIp, shard->env->server_os);
      shard->env->net.attach_client(shard->client.get());
      shard->env->net.attach_server(shard->server.get());
    }
    shard->port_base = static_cast<std::uint16_t>(30001 + i * 2048);
    shards_.push_back(std::move(shard));
  }
}

FleetEngine::~FleetEngine() = default;

void FleetEngine::swap_technique(const std::string& name,
                                 const CachedCharacterization& cached) {
  for (auto& shard : shards_) {
    shard->shim->set_context(cached.context());
    if (name.empty()) {
      shard->shim->clear_technique();
    } else {
      // One instance per shard: techniques are cheap, and sharing one object
      // across concurrently-running shard worlds would be a data race.
      shard->shim->set_technique(
          std::shared_ptr<core::Technique>(lib_->instantiate(name)));
    }
  }
}

FleetDelta FleetEngine::run_wave(Shard& shard, const ApplicationTrace& trace,
                                 std::size_t wave, std::size_t admitted,
                                 BytesView packet_payload) {
  // Everything a shard wave spends (match ops in its DPI engine, packets
  // its shim mutates) attributes to the fleet phase, on any thread.
  LIBERATE_COST_SCOPE(kFleet);
  LIBERATE_PROV_SCOPE(shard.seed, kShardProvenanceSampleEvery);
  // The pre-DPI tap copies every datagram it passes, and the DPI engine
  // logs every classification; a shard world lives for the whole session
  // and reads neither, so keep only the current wave's.
  if (shard.env->pre_middlebox_tap != nullptr) {
    shard.env->pre_middlebox_tap->clear();
  }
  if (shard.env->dpi != nullptr) shard.env->dpi->engine().clear_log();

  WaveStats stats;
  if (options_.flow_mode == FlowMode::kPacketLevel) {
    stats = shard.driver->run_wave(
        admitted, packet_payload, BytesView(options_.packet_alt_payload),
        options_.packet_alt_every);
  } else {
    stats = run_wave_full_stack(shard, trace, admitted);
  }

  // Fold the wave into the shard's cumulative publish block. The last four
  // slots are already-cumulative shard-state reads; the WaveStats slots
  // accumulate. Both stay monotone, which the merger verifies.
  shard.counters[ShardCounter::kFlows] += stats.flows;
  shard.counters[ShardCounter::kDifferentiated] += stats.differentiated;
  shard.counters[ShardCounter::kBlocked] += stats.blocked;
  shard.counters[ShardCounter::kIncomplete] += stats.incomplete;
  shard.counters[ShardCounter::kLatencyUsSum] += stats.latency_us_sum;
  shard.counters[ShardCounter::kLatencySamples] += stats.latency_samples;
  shard.counters[ShardCounter::kFaultsInjected] = shard.faults_injected();
  shard.counters[ShardCounter::kFlowsEvicted] = shard.shim->flows_evicted();
  shard.counters[ShardCounter::kPacketsInjected] =
      shard.shim->packets_injected();
  shard.counters[ShardCounter::kPacketsRewritten] =
      shard.shim->packets_rewritten();
  LIBERATE_COUNTER_ADD("deploy.fleet.flows", stats.flows);
  LIBERATE_COUNTER_ADD("deploy.fleet.flows_differentiated",
                       stats.differentiated);

  LIBERATE_OBS_EVENT(
      static_cast<std::uint64_t>(shard.env->loop.now()), "deploy", "wave_done",
      obs::fv("shard", static_cast<std::uint64_t>(shard.index)),
      obs::fv("wave", static_cast<std::uint64_t>(wave)),
      obs::fv("flows", static_cast<std::uint64_t>(stats.flows)),
      obs::fv("differentiated",
              static_cast<std::uint64_t>(stats.differentiated)));

  return shard.publisher.publish(static_cast<std::uint32_t>(shard.index),
                                 static_cast<std::uint32_t>(wave),
                                 shard.counters);
}

WaveStats FleetEngine::run_wave_full_stack(Shard& shard,
                                           const ApplicationTrace& trace,
                                           std::size_t admitted) {
  netsim::EventLoop& loop = shard.env->loop;
  // The persistent hosts copy every datagram they receive, like the tap.
  shard.client->clear_raw_received();
  shard.server->clear_raw_received();
  auto wd = std::make_shared<FullStackWave>();
  wd->client_payload = concat_payload(trace, Sender::kClient);
  wd->server_payload = concat_payload(trace, Sender::kServer);
  wd->wave_base = static_cast<std::uint16_t>(shard.port_base +
                                             (shard.flow_serial % 2000));
  wd->slots.resize(admitted);
  shard.flow_serial += admitted;
  open_flows(loop, *shard.client, *shard.server, trace.server_port, wd);

  // Virtual-time budget: transfer under the profile's shaping rate plus the
  // stagger tail plus configured slack.
  const double wave_bytes =
      static_cast<double>(wd->client_payload.size() +
                          wd->server_payload.size()) *
      static_cast<double>(admitted);
  const double budget_s =
      kWaveSlackSeconds +
      netsim::to_seconds(kFlowStagger) * static_cast<double>(admitted) +
      wave_bytes * 8.0 / 1.0e6;
  const TimePoint deadline =
      loop.now() + static_cast<Duration>(budget_s * 1e6);
  auto flow_done = [&](const FlowSlot& s) {
    return s.out.reset || wd->delivered(s);
  };
  while (loop.now() < deadline) {
    if (std::all_of(wd->slots.begin(), wd->slots.end(), flow_done)) break;
    loop.run_for(netsim::milliseconds(200));
  }

  WaveStats stats;
  for (FlowSlot& slot : wd->slots) {
    slot.out.delivered = wd->delivered(slot);
    stats.score(slot.out, *shard.env);
  }

  // Retire the wave: abort anything still open so lost-segment retransmit
  // timers don't bleed into the next wave, then drain briefly. Verdicts are
  // already collected — the RST-triggered classifier flush can't skew them.
  for (FlowSlot& slot : wd->slots) {
    if (slot.conn != nullptr &&
        slot.conn->state() != TcpConnection::State::kClosed) {
      slot.conn->abort();
    }
  }
  loop.run_for(seconds(5));
  return stats;
}

FleetReport FleetEngine::run(const ApplicationTrace& trace) {
  Run run(trace, shards_.size());
  run.report.environment = options_.environment;
  run.report.app = trace.app_name;
  run.report.shards = shards_.size();

  characterize(run);
  prepare_waves(run);
  for (std::size_t wave = 0; wave < options_.waves; ++wave) {
    const std::vector<std::size_t> admitted = admit(wave);
    FleetWaveReport wr = merge(run, wave, drive(run, wave, admitted));
    sample(run, wr);
    detect(run, wr);
    adapt(run, wr);
    wr.state_after = run.policy.state();
    wr.technique_after = run.technique;
    if (options_.on_wave) options_.on_wave(wr);
    run.report.waves.push_back(std::move(wr));
  }
  return finish(run);
}

void FleetEngine::characterize(Run& run) {
  FleetReport& report = run.report;
  const ApplicationTrace& trace = run.trace;
  CachedCharacterization& current = run.current;
  std::optional<fingerprint::AmbiguityDigest> active_digest;
  if (options_.ambiguity_probes) {
    run.hooks.probe_ambiguity = [this] {
      // Probe worlds are built fresh from the profile name and then replay
      // the epoch log of scripted classifier changes, so a probe always
      // sees the same classifier the live shards do.
      fingerprint::AmbiguityProbeOptions popts;
      popts.workers = options_.workers == 0 ? 1 : options_.workers;
      popts.seed = options_.seed;
      return fingerprint::probe_ambiguity(
          [this](std::uint64_t seed) {
            auto env = dpi::make_environment(options_.environment, seed);
            for (const auto& change : applied_changes_) change(*env);
            return env;
          },
          popts);
    };
    run.hooks.max_distance = options_.ambiguity_max_distance;
    fingerprint::AmbiguityProbeResult probed = run.hooks.probe_ambiguity();
    report.fingerprint_probe_flows += probed.probe_flows;
    report.fingerprint_digest = probed.digest.fingerprint_hex();
    report.fingerprint_dims = probed.digest.dims.size();
    active_digest = std::move(probed.digest);
  }

  // Warm cache entry, nearest ambiguity fingerprint, or full analysis.
  const CachedCharacterization* warm =
      options_.cache != nullptr
          ? options_.cache->lookup(options_.environment, trace.app_name)
          : nullptr;
  if (warm != nullptr && !warm->ranking.empty()) {
    current = *warm;
    report.initial_from_cache = true;
    if (options_.ambiguity_probes) {
      report.fingerprint_source = "exact";
      report.fingerprint_profile = warm->environment;
    }
  } else if (active_digest && options_.cache != nullptr) {
    // Exact key missed — fall back to the nearest fingerprinted entry for
    // this app. A match means some already-characterized deployment resolves
    // every probed ambiguity within the allowed distance: adopt its ranking
    // wholesale and skip the full analysis.
    auto [match, distance] = options_.cache->nearest_by_ambiguity(
        *active_digest, trace.app_name, options_.ambiguity_max_distance);
    if (match != nullptr && !match->ranking.empty()) {
      report.fingerprint_profile = match->environment;
      report.fingerprint_source = "nearest";
      current = *match;
      current.environment = options_.environment;
      report.initial_from_cache = true;
    }
  }
  if (!report.initial_from_cache) {
    core::ReplayRunner& runner = lib_->runner();
    const int r0 = runner.rounds();
    const std::uint64_t b0 = runner.bytes_offered();
    core::SessionReport analysis = lib_->analyze(trace);
    report.initial_analysis_rounds = runner.rounds() - r0;
    report.initial_analysis_bytes = runner.bytes_offered() - b0;
    current = make_cached_characterization(options_.environment,
                                           trace.app_name, analysis);
    if (options_.cache != nullptr) options_.cache->store(current);
    if (options_.ambiguity_probes) report.fingerprint_source = "probed";
  }
  if (active_digest) {
    // Whatever path produced the knowledge, pin the freshly probed digest to
    // this environment's entry so future deployments can nearest-match it.
    current.ambiguity = *active_digest;
    if (options_.cache != nullptr) options_.cache->store(current);
  }

  run.technique =
      current.ranking.empty() ? std::string() : current.ranking.front().name;
  report.technique_initial = run.technique;
  swap_technique(run.technique, current);
}

void FleetEngine::prepare_waves(Run& run) {
  if (options_.workers > 0) {
    run.pool = std::make_unique<ThreadPool>(options_.workers);
  }
  if (options_.flow_mode != FlowMode::kPacketLevel) return;
  // Packet-level mode: build each shard's crafted-flow driver now that the
  // trace (and so the server port) is known. Client address blocks are
  // disjoint per shard, tuples never repeat across waves.
  run.packet_payload = concat_payload(run.trace, Sender::kClient);
  for (auto& shard : shards_) {
    if (shard->driver != nullptr) continue;
    PacketFlowConfig cfg;
    cfg.client_ip_base =
        0x0a000000u + static_cast<std::uint32_t>(shard->index + 1) * 0x10000u;
    cfg.server_ip = kServerIp;
    cfg.server_port = run.trace.server_port;
    cfg.segment_bytes = options_.packet_segment_bytes;
    shard->driver =
        std::make_unique<PacketFlowDriver>(*shard->env, *shard->shim, cfg);
    shard->shim->reserve_flows(options_.flows_per_wave * 2);
  }
}

std::vector<std::size_t> FleetEngine::admit(std::size_t wave) {
  if (wave == options_.change_at_wave && options_.classifier_change) {
    // Applied at a quiet wave boundary: shard loops are idle, so no
    // in-flight walk holds a path index (emplace_at's precondition).
    for (auto& shard : shards_) options_.classifier_change(*shard->env);
    options_.classifier_change(*probe_env_);
    applied_changes_.push_back(options_.classifier_change);
  }

  // Shard-affine admission: hash every global flow id of this wave to its
  // shard on the control thread, so the assignment (and each shard's
  // count) is a pure function of (seed, wave) at any worker count.
  const std::size_t wave_total = options_.flows_per_wave * shards_.size();
  std::vector<std::size_t> admitted(shards_.size(), 0);
  for (std::size_t k = 0; k < wave_total; ++k) {
    const std::uint64_t global_flow =
        static_cast<std::uint64_t>(wave) * wave_total + k;
    ++admitted[admit_shard(options_.seed, global_flow, shards_.size())];
  }
  return admitted;
}

std::vector<FleetDelta> FleetEngine::drive(
    Run& run, std::size_t wave, const std::vector<std::size_t>& admitted) {
  std::vector<FleetDelta> published(shards_.size());
  const ApplicationTrace& trace = run.trace;
  const BytesView payload(run.packet_payload);
  if (run.pool == nullptr) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      published[i] = run_wave(*shards_[i], trace, wave, admitted[i], payload);
    }
    return published;
  }
  std::vector<std::future<FleetDelta>> futures;
  futures.reserve(shards_.size());
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    const std::size_t n = admitted[s->index];
    futures.push_back(run.pool->submit(
        LIBERATE_OBS_PROPAGATE([this, s, &trace, wave, n, payload] {
          return run_wave(*s, trace, wave, n, payload);
        })));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    published[i] = futures[i].get();  // shard order: deterministic merge
  }
  return published;
}

FleetWaveReport FleetEngine::merge(Run& run, std::size_t wave,
                                   const std::vector<FleetDelta>& published) {
  // Fold the publishes in shard order; each apply reconstructs that
  // shard's per-wave stats exactly from the cumulative stream.
  FleetWaveReport wr;
  wr.wave = wave;
  wr.shard_stats.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    run.merger.apply(published[i], &wr.shard_stats[i]);
    wr.stats += wr.shard_stats[i];
  }
  run.report.totals += wr.stats;
  return wr;
}

void FleetEngine::sample([[maybe_unused]] const Run& run,
                         const FleetWaveReport& wr) const {
  // Telemetry hub sampling: per-shard series points plus a registry tick.
  // Compiled away at obs level 0. All timestamps are the wave's sim-clock
  // boundary, so identical runs produce identical series.
  [[maybe_unused]] const std::uint64_t ts_us = wave_ts_us(wr.wave);
  auto sample_rates = [&]([[maybe_unused]] int shard,
                          [[maybe_unused]] const WaveStats& s) {
    LIBERATE_TS_SAMPLE("fleet.diff_rate", shard, ts_us,
                       s.differentiated_rate());
    LIBERATE_TS_SAMPLE("fleet.blocked_rate", shard, ts_us, s.blocked_rate());
    LIBERATE_TS_SAMPLE("fleet.incomplete_rate", shard, ts_us,
                       s.incomplete_rate());
    LIBERATE_TS_SAMPLE("fleet.latency_us", shard, ts_us, s.mean_latency_us());
  };
  for (std::size_t i = 0; i < wr.shard_stats.size(); ++i) {
    sample_rates(static_cast<int>(i), wr.shard_stats[i]);
    // Per-wave fault/eviction movement, straight off the merged delta
    // stream (the merger keeps each shard's previous publish).
    LIBERATE_TS_SAMPLE("fleet.faults", i, ts_us,
                       run.merger.wave_delta(i, ShardCounter::kFaultsInjected));
    LIBERATE_TS_SAMPLE("fleet.evicted", i, ts_us,
                       run.merger.wave_delta(i, ShardCounter::kFlowsEvicted));
    // Open-addressing occupancy of the shard's shim table. Read on the
    // control thread at the wave boundary (shard loops are idle).
    LIBERATE_TS_SAMPLE("fleet.flow_table_load", i, ts_us,
                       shards_[i]->shim->flow_table_load());
  }
  sample_rates(-1, wr.stats);
  LIBERATE_TS_TICK(ts_us, {"deploy.", "dpi.", "netsim.", "stack.", "core."});
}

void FleetEngine::detect(Run& run, FleetWaveReport& wr) {
  // Anomaly pass: robust z-scores over the merged series. A flagged
  // detector on a rate-suspect wave corroborates drift (the monitor
  // confirms one wave sooner); a flag on a clean wave only annotates.
  const std::pair<const char*, double> series_points[] = {
      {"blocked_rate", wr.stats.blocked_rate()},
      {"diff_rate", wr.stats.differentiated_rate()},
      {"incomplete_rate", wr.stats.incomplete_rate()},
      {"latency_ms", wr.stats.mean_latency_us() / 1000.0},
  };
  for (const auto& [series, x] : series_points) {
    auto det = run.detectors
                   .try_emplace(series,
                                obs::AnomalyDetector(fleet_anomaly_config()))
                   .first;
    obs::AnomalyVerdict v = det->second.observe(x);
    if (v.flagged) {
      wr.anomalies.push_back(series);
      LIBERATE_OBS_EVENT(wave_ts_us(wr.wave), "obs", "anomaly",
                         obs::fv("series", series),
                         obs::fv("wave", static_cast<std::uint64_t>(wr.wave)));
    }
  }
  wr.corroborated = !wr.anomalies.empty();
  wr.signal = run.monitor.observe(wr.stats, wr.corroborated);
}

void FleetEngine::adapt(Run& run, FleetWaveReport& wr) {
  // AdaptationPolicy refuses illegal edges without side effects, so each
  // branch names only the edge it wants.
  const std::uint64_t ts_us = wave_ts_us(wr.wave);
  AdaptationPolicy& policy = run.policy;
  if (!wr.signal) {
    if (run.monitor.suspect_streak() > 0) {
      policy.transition(DeployState::kSuspect, wr.wave, "drift-suspect", ts_us);
    } else if (policy.state() == DeployState::kSuspect) {
      policy.transition(DeployState::kDeployed, wr.wave, "cleared", ts_us);
    } else if (policy.state() == DeployState::kReDeployed) {
      policy.transition(DeployState::kDeployed, wr.wave, "settled", ts_us);
    }
    return;
  }
  policy.transition(DeployState::kSuspect, wr.wave, "drift-suspect", ts_us);
  policy.transition(DeployState::kReVerifying, wr.wave,
                    format("drift:%s", drift_kind_name(wr.signal->kind)),
                    ts_us);

  FleetReport& report = run.report;
  core::ReplayRunner& runner = lib_->runner();
  const int rr0 = runner.rounds();
  const std::uint64_t rb0 = runner.bytes_offered();
  ReadaptOutcome outcome = incremental_readapt(
      *lib_, run.trace, run.current, options_.cache, &run.hooks);
  report.readapts += 1;
  report.readapt_rounds += runner.rounds() - rr0;
  report.readapt_bytes += runner.bytes_offered() - rb0;
  wr.readapt_path = outcome.path;
  wr.readapt_rounds = runner.rounds() - rr0;
  wr.readapt_ladder = outcome.ladder;
  wr.readapt_probe_flows = outcome.probe_flows;
  report.fingerprint_probe_flows += outcome.probe_flows;
  if (outcome.probed_ambiguity) {
    report.fingerprint_digest = outcome.probed_ambiguity->fingerprint_hex();
    report.fingerprint_dims = outcome.probed_ambiguity->dims.size();
  }
  // Readapt cost as a fleet series point at this wave's boundary. The
  // value comes from the runner's deterministic round counter, so the
  // "fleet."-prefixed telemetry document stays byte-identical across
  // worker counts and match backends.
  LIBERATE_TS_SAMPLE("fleet.cost.readapt_rounds", -1, ts_us,
                     wr.readapt_rounds);

  if (outcome.path == ReadaptPath::kFullAnalysis) {
    policy.transition(DeployState::kReAnalyzing, wr.wave,
                      "fingerprint-mismatch", ts_us);
    if (outcome.probed_ambiguity) {
      report.fingerprint_profile.clear();
      report.fingerprint_source = "probed";
    }
  } else if (outcome.path == ReadaptPath::kFingerprintMatched) {
    report.fingerprint_profile = outcome.matched_environment;
    report.fingerprint_source = "nearest";
  }
  policy.transition(DeployState::kReDeployed, wr.wave,
                    readapt_path_name(outcome.path), ts_us);
  // The readapt decided what runs next; hot-swap it onto every shard.
  run.current = std::move(outcome.deployed);
  run.technique = outcome.technique;
  swap_technique(run.technique, run.current);
  run.monitor.rebaseline();
  // The new technique's treatment profile is the new normal: re-warm the
  // detectors alongside the drift baseline.
  for (auto& [series, det] : run.detectors) det.reset();
}

FleetReport FleetEngine::finish(Run& run) {
  FleetReport& report = run.report;
  report.technique_final = run.technique;
  report.transitions = run.policy.transitions();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // Totals come off the merged delta stream — the same numbers the shards
    // hold, but read from the control plane's reconstruction.
    report.flows_evicted += run.merger.total(i, ShardCounter::kFlowsEvicted);
    report.faults_injected +=
        run.merger.total(i, ShardCounter::kFaultsInjected);
    report.flows_resident += shards_[i]->shim->tracked_flows();
  }
  report.delta_entries_shipped = run.merger.entries_shipped();
  report.delta_entries_full = run.merger.entries_full_equivalent();
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
  // Export only the deterministic "fleet." series: everything under that
  // prefix is sampled on wave boundaries from merged-in-shard-order stats,
  // so the document is byte-identical across worker counts and backends
  // (registry-tick series like util.* are deliberately excluded — pool
  // counters depend on worker count).
  report.telemetry_json = obs::timeseries_to_json(
      obs::TimeSeriesStore::instance().snapshot("fleet."));
#endif
  return std::move(report);
}

std::string FleetReport::summary() const {
  std::string out;
  out += format("FLEET env=%s app=%s shards=%zu waves=%zu flows=%zu\n",
                environment.c_str(), app.c_str(), shards, waves.size(),
                totals.flows);
  out += format("FLEET deploy technique=%s source=%s rounds=%d\n",
                technique_initial.empty() ? "(none)" : technique_initial.c_str(),
                initial_from_cache ? "cache" : "analysis",
                initial_analysis_rounds);
  if (!fingerprint_source.empty()) {
    // Active ambiguity fingerprint. Digest and probe counts come from the
    // deterministic probe catalog, so this line is byte-identical across
    // worker counts, obs levels, and match backends.
    out += format(
        "FLEET fingerprint digest=%s dims=%zu profile=%s source=%s "
        "probe_flows=%zu\n",
        fingerprint_digest.empty() ? "(none)" : fingerprint_digest.c_str(),
        fingerprint_dims,
        fingerprint_profile.empty() ? "(none)" : fingerprint_profile.c_str(),
        fingerprint_source.c_str(), fingerprint_probe_flows);
  }
  for (const FleetWaveReport& w : waves) {
    out += format(
        "FLEET wave=%zu flows=%zu diff=%.3f blocked=%.3f incomplete=%.3f "
        "lat_us=%.0f state=%s technique=%s",
        w.wave, w.stats.flows, w.stats.differentiated_rate(),
        w.stats.blocked_rate(), w.stats.incomplete_rate(),
        w.stats.mean_latency_us(), deploy_state_name(w.state_after),
        w.technique_after.empty() ? "(none)" : w.technique_after.c_str());
    if (!w.anomalies.empty()) {
      out += " anomaly=";
      for (std::size_t i = 0; i < w.anomalies.size(); ++i) {
        if (i > 0) out += ",";
        out += w.anomalies[i];
      }
    }
    if (w.signal) {
      out += format(" signal=%s%s", drift_kind_name(w.signal->kind),
                    w.signal->corroborated ? "+corroborated" : "");
    }
    if (w.readapt_path) {
      out += format(" readapt=%s", readapt_path_name(*w.readapt_path));
    }
    out += "\n";
    if (w.readapt_path) {
      // Ladder-stage cost breakdown for the wave's re-characterization:
      // where the verification rounds went, stage by stage.
      out += format("FLEET readapt wave=%zu path=%s rounds=%d ladder=", w.wave,
                    readapt_path_name(*w.readapt_path), w.readapt_rounds);
      for (std::size_t i = 0; i < w.readapt_ladder.size(); ++i) {
        if (i > 0) out += ",";
        out += format("%s:%d", w.readapt_ladder[i].stage.c_str(),
                      w.readapt_ladder[i].rounds);
      }
      if (w.readapt_probe_flows > 0) {
        out += format(" probe_flows=%zu", w.readapt_probe_flows);
      }
      out += "\n";
    }
  }
  for (const StateTransition& t : transitions) {
    out += format("FLEET transition %s->%s@%zu %s\n", deploy_state_name(t.from),
                  deploy_state_name(t.to), t.wave, t.reason.c_str());
  }
  out += format(
      "FLEET totals flows=%zu differentiated=%zu blocked=%zu incomplete=%zu "
      "evicted=%llu faults=%llu\n",
      totals.flows, totals.differentiated, totals.blocked, totals.incomplete,
      static_cast<unsigned long long>(flows_evicted),
      static_cast<unsigned long long>(faults_injected));
  out += format(
      "FLEET cost analysis_rounds=%d analysis_bytes=%llu readapts=%zu "
      "readapt_rounds=%d readapt_bytes=%llu\n",
      initial_analysis_rounds,
      static_cast<unsigned long long>(initial_analysis_bytes), readapts,
      readapt_rounds, static_cast<unsigned long long>(readapt_bytes));
  out += format("FLEET final technique=%s\n",
                technique_final.empty() ? "(none)" : technique_final.c_str());
  return out;
}

}  // namespace liberate::deploy
