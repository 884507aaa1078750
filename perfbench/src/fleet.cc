// fleet.cc — the fleet-soak and fleet-churn workloads: packet-level
// FleetEngine sessions driven through FleetEngine::run, timed from the
// on_wave callbacks.
//
// A session is one engine: construction through the end of wave 0 is its
// set-up (deploy-time analysis, shard worlds, warm-up wave); waves 1..N are
// measured. The run repeats fixed-size sessions until --seconds have passed,
// so faster code measures more waves of the same shape, never bigger ones.
#include <memory>
#include <optional>

#include "core/evasion/registry.h"
#include "deploy/fleet.h"
#include "dpi/normalizer.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "trace/generators.h"
#include "workloads.h"

namespace perfbench {

using namespace liberate;

namespace {

constexpr std::size_t kSetupReps = 9;

FleetShape shape_of(const std::string& workload) {
  FleetShape s;
  if (workload == "fleet-soak") {
    // ~200k flows per session, all resident: large-table lookups, DPI and
    // shim work per packet, delta merges and obs contention across workers.
    s.flows_per_shard = 256;
    s.waves = 96;
    s.workers = pool_width();
    s.segment_bytes = 512;
    s.alt_every = 4;
    s.classifier_change = true;
  } else {
    // Serial, small segments, every flow classified, evicted and faulted.
    // Waves are short (about 4 ms) so that many of them fall between bursts
    // of host noise: the run's fastest wave is its cost (batch_cost).
    s.flows_per_shard = 32;
    s.waves = 256;
    s.workers = 0;
    s.segment_bytes = 64;
    s.faults = true;
    s.shim_cap = 4;
  }
  return s;
}

/// The classifier change dropped mid-soak: the middlebox learns to
/// reassemble fragments, which kills the deployed fragmentation technique
/// and forces one live drift -> readapt walk.
void add_normalizer(dpi::Environment& env) {
  dpi::NormalizerConfig cfg;
  cfg.reassemble_fragments = true;
  env.net.emplace_at<dpi::NormalizerElement>(0, cfg);
}

deploy::FleetOptions fleet_options(const FleetShape& s, std::uint64_t seed,
                                   std::size_t workers) {
  deploy::FleetOptions o;
  o.environment = "testbed";
  o.seed = seed;
  o.shards = s.shards;
  o.flows_per_wave = s.flows_per_shard;
  o.waves = s.waves + 1;
  o.flow_mode = deploy::FlowMode::kPacketLevel;
  o.packet_segment_bytes = s.segment_bytes;
  if (s.alt_every != 0) {
    o.packet_alt_payload = core::decoy_request_payload();
    o.packet_alt_every = s.alt_every;
  }
  o.workers = workers;
  if (s.faults) o.faults = netsim::FaultPolicy::reorder_heavy();
  o.max_flows_per_shim = s.cap();
  if (s.classifier_change) {
    o.change_at_wave = 1 + s.waves / 2;
    o.classifier_change = add_normalizer;
  }
  return o;
}

/// Sessions must not inherit telemetry from the previous one.
void reset_obs() {
  obs::reset_all();
  obs::TimeSeriesStore::instance().reset();
}

struct Session {
  deploy::FleetReport report;
  double setup_s = 0;
  std::vector<double> wave_ms;  // measured waves
  std::vector<double> wave_cpu_ms;  // process CPU per measured wave
  std::vector<double> readapt_wave_ms;
  std::uint64_t measured_flows = 0;
  Usage measured;  // process counters over the measured waves
};

Session run_session(const deploy::FleetOptions& base,
                    const trace::ApplicationTrace& trace, Tracer& tracer,
                    std::uint64_t op, CpuRotation* rotation) {
  reset_obs();
  Session out;
  deploy::FleetOptions opts = base;
  std::vector<Clock::time_point> ts;
  ts.reserve(opts.waves);
  double last_cpu = 0;
  Usage after_warmup;
  Scope session_span(tracer, "fleet.session", op);
  const std::uint32_t setup_span = tracer.begin("deploy.setup", op);
  opts.on_wave = [&](const deploy::FleetWaveReport& w) {
    const Clock::time_point now = Clock::now();
    const double cpu = process_cpu_ms();
    if (w.wave != 0) out.wave_cpu_ms.push_back(cpu - last_cpu);
    last_cpu = cpu;
    if (rotation != nullptr) rotation->step();
    if (w.wave == 0) {
      tracer.end(setup_span);
      after_warmup = Usage::now();
    } else {
      const double ms = ms_between(ts.back(), now);
      out.wave_ms.push_back(ms);
      out.measured_flows += w.stats.flows;
      if (w.readapt_path) out.readapt_wave_ms.push_back(ms);
      tracer.record(w.readapt_path ? "deploy.wave.readapt" : "deploy.wave",
                    ts.back(), now, op);
    }
    ts.push_back(now);
  };
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<deploy::FleetEngine> engine;
  {
    Scope ctor(tracer, "deploy.engine_ctor", op);
    engine = std::make_unique<deploy::FleetEngine>(opts);
  }
  out.report = engine->run(trace);
  if (opts.waves > 1) out.measured = Usage::now() - after_warmup;
  out.setup_s = ts.empty() ? 0 : seconds_between(t0, ts.front());
  return out;
}

/// Reduced-size copy of the workload's shape: the pool-wide and serial runs
/// must print byte-identical FleetReport::summary() text.
bool summary_identical(const FleetShape& shape,
                       const trace::ApplicationTrace& trace,
                       std::uint64_t seed) {
  FleetShape small = shape;
  small.shards = 4;
  small.flows_per_shard = std::max<std::size_t>(16, shape.flows_per_shard / 8);
  small.waves = 6;
  if (shape.shim_cap != 0) {
    small.shim_cap = std::max<std::size_t>(2, shape.shim_cap / 8);
  }
  auto summary = [&](std::size_t workers) {
    reset_obs();
    deploy::FleetEngine engine(fleet_options(small, seed, workers));
    return engine.run(trace).summary();
  };
  return summary(pool_width()) == summary(0);
}

}  // namespace

void run_fleet(const Options& options, Tracer& tracer, Result& result) {
  const FleetShape shape = shape_of(options.workload);
  const trace::ApplicationTrace trace =
      amazon_trace(4 * 1024, derive_seed(options.seed, 0));
  result.context["pool_width"] = std::to_string(shape.workers);
  result.context["shape"] =
      std::to_string(shape.shards) + "x" +
      std::to_string(shape.flows_per_shard) + "x" +
      std::to_string(shape.waves + 1);

  result.check("summary_identical_pool_vs_serial",
               summary_identical(shape, trace, derive_seed(options.seed, 3)));

  // A serial fleet runs every wave on the control thread and starts no
  // threads: hold it on the next CPU after each wave.
  std::optional<CpuRotation> rotation;
  if (shape.workers == 0) rotation.emplace(true);
  CpuRotation* rotate = rotation ? &*rotation : nullptr;

  // Set-up: extra engine set-ups (construction through wave 0), plus every
  // measured session's own.
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    deploy::FleetOptions o =
        fleet_options(shape, derive_seed(options.seed, 2, rep), shape.workers);
    o.waves = 1;
    setup_s.push_back(run_session(o, trace, tracer, rep, rotate).setup_s);
  }

  // Traced runs alternate untraced and traced sessions; the difference in
  // wave time between the two halves is the tracing overhead.
  Tracer untraced(false);
  std::vector<double> wave_ms, readapt_wave_ms, traced_ms, untraced_ms;
  std::vector<double> wave_cpu_ms;
  std::uint64_t flows = 0, incomplete = 0, differentiated = 0, blocked = 0;
  std::uint64_t delta_entries = 0, waves_total = 0, readapts = 0;
  std::uint64_t readapt_rounds = 0, sessions = 0;
  std::map<std::string, std::uint64_t> exits;
  Usage measured;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    Session s = run_session(
        fleet_options(shape, derive_seed(options.seed, 1, i), shape.workers),
        trace, traced ? tracer : untraced, 1000 + i, rotate);
    const deploy::FleetReport& r = s.report;
    sessions += 1;
    setup_s.push_back(s.setup_s);
    wave_ms.insert(wave_ms.end(), s.wave_ms.begin(), s.wave_ms.end());
    wave_cpu_ms.insert(wave_cpu_ms.end(), s.wave_cpu_ms.begin(),
                       s.wave_cpu_ms.end());
    (traced ? traced_ms : untraced_ms)
        .insert((traced ? traced_ms : untraced_ms).end(), s.wave_ms.begin(),
                s.wave_ms.end());
    readapt_wave_ms.insert(readapt_wave_ms.end(), s.readapt_wave_ms.begin(),
                           s.readapt_wave_ms.end());
    flows += s.measured_flows;
    measured += s.measured;
    incomplete += r.totals.incomplete;
    differentiated += r.totals.differentiated;
    blocked += r.totals.blocked;
    delta_entries += r.delta_entries_shipped;
    waves_total += r.waves.size();
    readapts += r.readapts;
    readapt_rounds += static_cast<std::uint64_t>(r.readapt_rounds);
    for (const deploy::FleetWaveReport& w : r.waves) {
      if (w.readapt_path) exits[deploy::readapt_path_name(*w.readapt_path)]++;
    }

    const bool all_driven = r.totals.flows == shape.session_flows();
    result.check("every_flow_driven", all_driven);
    result.check("no_flow_blocked", r.totals.blocked == 0);
    result.check("technique_deployed", !r.technique_initial.empty() &&
                                           !r.technique_final.empty());
    if (shape.classifier_change) {
      result.check("soak_every_flow_resident",
                   r.flows_resident == shape.session_flows());
      result.check("soak_zero_evictions", r.flows_evicted == 0);
      result.check("soak_exactly_one_readapt", r.readapts == 1);
    } else {
      result.check("churn_no_readapt_on_faults", r.readapts == 0);
      result.check("churn_every_flow_evicted",
                   r.flows_resident <= shape.shards * shape.cap() &&
                       r.flows_evicted + r.flows_resident >= r.totals.flows);
      result.check("churn_faults_injected", r.faults_injected > 0);
    }
    const bool enough = seconds_since(start) >= options.seconds;
    if (enough && (!options.trace || i % 2 == 1)) break;
  }
  rotation.reset();

  result.attempted = flows;
  result.failed = blocked;
  const bool serial = shape.workers == 0;
  const double wave_flows = static_cast<double>(shape.shards *
                                                shape.flows_per_shard);
  const double wave_ms_cost = batch_cost(wave_ms, serial);
  result.metric("setup_s", median(setup_s));
  result.metric("ops_per_s", wave_flows / wave_ms_cost * 1e3);
  result.metric("batch_ms", wave_ms_cost);
  result.metric("batch_ms_p90", quantile(wave_ms, 0.9));
  result.metric("cpu_ms_per_op", batch_cost(wave_cpu_ms, serial) / wave_flows);
  // The workload's own names, and the plain statistics of the same samples.
  const double wave_s = sum(wave_ms) / 1e3;
  result.metric("fleet.flows_per_s", static_cast<double>(flows) / wave_s);
  result.metric("fleet.wave_ms_min", quantile(wave_ms, 0));
  result.metric("fleet.wave_ms_p50", quantile(wave_ms, 0.5));
  result.metric("fleet.wave_ms_p90", quantile(wave_ms, 0.9));
  result.metric("fleet.cpu_ms_per_flow",
                measured.cpu_s() * 1e3 / static_cast<double>(flows));
  result.metric("fleet.waves_measured", static_cast<double>(wave_ms.size()));
  result.metric("fleet.setup_samples", static_cast<double>(setup_s.size()));
  result.metric("deploy.readapt_ms", median(readapt_wave_ms));
  const double all_flows =
      static_cast<double>(shape.session_flows() * sessions);
  result.metric("fleet.flows_incomplete_ratio",
                static_cast<double>(incomplete) / all_flows);
  result.metric("fleet.flows_differentiated_ratio",
                static_cast<double>(differentiated) / all_flows);

  result.metric("obs.vcsw_per_kflow",
                measured.vcsw / (static_cast<double>(flows) / 1e3));
  result.metric("obs.sys_cpu_share", measured.sys_s / measured.cpu_s());
  if (options.trace) {
    result.metric("obs.tracing_overhead_pct",
                  (mean(traced_ms) / mean(untraced_ms) - 1.0) * 100.0);
  }
  result.metric("deploy.delta_entries_per_wave",
                static_cast<double>(delta_entries) /
                    static_cast<double>(waves_total));
  result.metric("deploy.readapt_rounds",
                readapts == 0 ? 0.0
                              : static_cast<double>(readapt_rounds) /
                                    static_cast<double>(readapts));
  readapt_exit_metrics(exits, readapts, result);
  // Fleets run without ambiguity probes.
  result.metric("fingerprint.probe_ms", 0);
  result.metric("fingerprint.probe_flows", 0);

  if (options.trace) {
    fleet_datagram_layers(shape, trace, derive_seed(options.seed, 4), tracer,
                          result);
    const std::vector<Network> deployed = {Network{"testbed", trace}};
    const std::vector<core::SessionReport> reports = analysis_layers(
        deployed, derive_seed(options.seed, 5), 3, tracer, result);
    round_layers(deployed, reports, derive_seed(options.seed, 6), tracer,
                 result);
  }
}

}  // namespace perfbench
