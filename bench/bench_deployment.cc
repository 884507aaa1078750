// bench_deployment — the deployment control plane under load: fleet
// throughput (live flows/sec through per-shard evasion shims), the latency
// from a scripted classifier countermeasure to a confirmed re-deployment,
// and the headline cost claim — incremental re-characterization from the
// fingerprint cache at a fraction of a full analyze() (acceptance: < 25% of
// the full-analysis probe rounds).
#include <chrono>
#include <cstdio>

#include "bench/common.h"
#include "deploy/fleet.h"
#include "dpi/normalizer.h"
#include "trace/generators.h"

using namespace liberate;
using namespace liberate::deploy;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The soak shape from tests/deploy/fleet_test.cc, parameterized: a
/// normalizer reassembling IP fragments lands mid-run and kills the
/// deployed fragment-based technique without touching the rule set.
FleetOptions drift_options(std::size_t change_at_wave) {
  FleetOptions opts;
  opts.shards = 4;
  opts.flows_per_wave = 16;
  opts.waves = 8;
  opts.faults = netsim::FaultPolicy::reorder_heavy();
  opts.change_at_wave = change_at_wave;
  opts.classifier_change = [](dpi::Environment& env) {
    dpi::NormalizerConfig cfg;
    cfg.reassemble_fragments = true;
    env.net.emplace_at<dpi::NormalizerElement>(0, cfg);
  };
  return opts;
}

}  // namespace

int main() {
  bench::JsonReport json("deployment");
  const auto trace = trace::amazon_video_trace(8 * 1024);

  bench::print_header(
      "fleet throughput — live flows/sec through sharded evasion shims");
  std::printf("%-8s %8s %8s %10s %10s\n", "workers", "shards", "flows",
              "wall s", "flows/s");
  bench::print_rule(50);
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    FleetOptions opts;
    opts.shards = 4;
    opts.flows_per_wave = 16;
    opts.waves = 4;
    opts.workers = workers;
    FleetEngine engine(opts);
    auto start = Clock::now();
    FleetReport report = engine.run(trace);
    double wall = seconds_since(start);
    double rate = static_cast<double>(report.totals.flows) / wall;
    std::printf("%-8zu %8zu %8llu %10.3f %10.1f\n", workers, opts.shards,
                static_cast<unsigned long long>(report.totals.flows), wall,
                rate);
    json.row("workers=" + std::to_string(workers));
    json.field("workers", static_cast<std::uint64_t>(workers));
    json.field("flows", report.totals.flows);
    json.field("wall_s", wall);
    json.field("flow_rate", rate);
  }
  bench::print_rule(50);
  std::printf(
      "Shards are isolated worlds, so throughput scales with cores; the\n"
      "deploy-time analysis (same for every worker count) is included.\n");

  bench::print_header(
      "drift detection -> incremental re-adaptation (scripted countermeasure)");
  {
    FleetEngine engine(drift_options(3));
    auto start = Clock::now();
    FleetReport report = engine.run(trace);
    double wall = seconds_since(start);

    std::size_t change_wave = 3;
    std::size_t redeploy_wave = 0;
    bool redeployed = false;
    // Replay rounds spent between the countermeasure landing and the
    // confirmed re-deployment (every readapt's ladder walk up to and
    // including the wave that re-deployed).
    int drift_to_redeploy_rounds = 0;
    for (const FleetWaveReport& w : report.waves) {
      if (w.readapt_path) {
        redeploy_wave = w.wave;
        redeployed = true;
        drift_to_redeploy_rounds += w.readapt_rounds;
      }
    }
    const std::size_t drift_latency_waves =
        redeployed ? redeploy_wave - change_wave : 0;
    const double incremental_pct =
        report.initial_analysis_rounds == 0
            ? 0.0
            : 100.0 * static_cast<double>(report.readapt_rounds) /
                  static_cast<double>(report.initial_analysis_rounds);

    std::printf("deployed technique      %s\n",
                report.technique_initial.c_str());
    std::printf("after re-adaptation     %s\n", report.technique_final.c_str());
    std::printf("countermeasure at wave  %zu\n", change_wave);
    std::printf("re-deployed at wave     %zu (%zu wave(s) later, %d rounds)\n",
                redeploy_wave, drift_latency_waves, drift_to_redeploy_rounds);
    std::printf("full analysis cost      %d rounds, %llu bytes\n",
                report.initial_analysis_rounds,
                static_cast<unsigned long long>(report.initial_analysis_bytes));
    std::printf("incremental cost        %d rounds, %llu bytes (%.1f%% of "
                "full)\n",
                report.readapt_rounds,
                static_cast<unsigned long long>(report.readapt_bytes),
                incremental_pct);
    std::printf("acceptance (<25%%)       %s\n",
                incremental_pct < 25.0 ? "PASS" : "FAIL");

    json.metric("technique_initial", report.technique_initial);
    json.metric("technique_final", report.technique_final);
    json.metric("readapts", report.readapts);
    json.metric("drift_wall_s", wall);
    json.metric("drift_to_redeploy_waves",
                static_cast<std::uint64_t>(drift_latency_waves));
    // Lower is better: a rise here means drift recovery got more expensive.
    json.metric("drift_to_redeploy_rounds", drift_to_redeploy_rounds);
    json.metric("full_analysis_rounds", report.initial_analysis_rounds);
    json.metric("full_analysis_bytes", report.initial_analysis_bytes);
    json.metric("readapt_rounds", report.readapt_rounds);
    json.metric("readapt_bytes", report.readapt_bytes);
    json.metric("incremental_cost_fraction", incremental_pct / 100.0);
    json.metric("incremental_under_25pct", incremental_pct < 25.0);
    json.metric("faults_injected", report.faults_injected);
  }

  bench::print_header(
      "fingerprint cache — cold deploy vs warm deploy (analysis skipped)");
  {
    ClassifierFingerprintCache cache;
    FleetOptions opts;
    opts.shards = 2;
    opts.flows_per_wave = 8;
    opts.waves = 2;
    opts.cache = &cache;

    auto start = Clock::now();
    FleetReport cold = FleetEngine(opts).run(trace);
    double cold_wall = seconds_since(start);
    start = Clock::now();
    FleetReport warm = FleetEngine(opts).run(trace);
    double warm_wall = seconds_since(start);

    std::printf("%-8s %10s %10s %12s\n", "deploy", "rounds", "wall s",
                "from cache");
    bench::print_rule(44);
    std::printf("%-8s %10d %10.3f %12s\n", "cold", cold.initial_analysis_rounds,
                cold_wall, cold.initial_from_cache ? "yes" : "no");
    std::printf("%-8s %10d %10.3f %12s\n", "warm", warm.initial_analysis_rounds,
                warm_wall, warm.initial_from_cache ? "yes" : "no");
    bench::print_rule(44);
    json.metric("cold_deploy_rounds", cold.initial_analysis_rounds);
    json.metric("cold_deploy_wall_s", cold_wall);
    json.metric("warm_deploy_rounds", warm.initial_analysis_rounds);
    json.metric("warm_deploy_wall_s", warm_wall);
    json.metric("warm_from_cache", warm.initial_from_cache);
  }
  return 0;
}
