// bench_parallel_rounds — throughput of the parallel round scheduler:
// rounds/second versus worker count on a fixed probe workload, plus the
// probe-cache hit rate when the same analysis repeats (the §4.2 "have the
// rules changed?" re-characterization path).
//
// Each round is a fully isolated simulation world, so scaling is embarrassing
// in principle; the measured curve shows how close the scheduler gets on the
// host it runs on (`hw` below reports the available cores — on a single-core
// host every worker count collapses to ~1x, which is expected).
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/liberate.h"
#include "core/round_scheduler.h"
#include "obs/snapshot.h"
#include "trace/generators.h"

using namespace liberate;
using namespace liberate::core;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A fixed wave of independent rounds, shaped like a blinding search layer:
/// the same trace with one byte region zeroed per request.
std::vector<RoundRequest> probe_wave(const trace::ApplicationTrace& trace,
                                     std::size_t rounds) {
  std::vector<RoundRequest> wave;
  wave.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) {
    RoundRequest req;
    req.trace = trace;
    auto& payload = req.trace.messages[0].payload;
    payload[i % payload.size()] = 0;
    req.server_port_override = static_cast<std::uint16_t>(21000 + i);
    wave.push_back(std::move(req));
  }
  return wave;
}

}  // namespace

int main() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hw: %u core(s) visible to this process\n", cores);
  bench::JsonReport json("parallel_rounds");
  json.metric("hw_cores", static_cast<std::uint64_t>(cores));

  bench::print_header(
      "parallel scheduler — rounds/sec vs worker count (64-round probe wave)");
  std::printf("%-8s %8s %10s %10s %8s\n", "workers", "rounds", "wall s",
              "rounds/s", "speedup");
  bench::print_rule(50);

  const auto trace = trace::amazon_video_trace(16 * 1024);
  constexpr std::size_t kRounds = 64;
  double serial_seconds = 0;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}}) {
    WorldSpec spec;
    // Caching off: every round in the wave must actually replay, so the
    // numbers measure execution throughput, not cache luck.
    RoundScheduler scheduler(spec, {.workers = workers, .cache_capacity = 0});
    auto wave = probe_wave(trace, kRounds);
    auto start = Clock::now();
    auto results = scheduler.run_batch(wave);
    double wall = seconds_since(start);
    if (workers == 0) serial_seconds = wall;
    std::printf("%-8zu %8zu %10.3f %10.1f %7.2fx\n",
                workers, results.size(), wall,
                static_cast<double>(results.size()) / wall,
                serial_seconds / wall);
    json.row("workers=" + std::to_string(workers));
    json.field("workers", static_cast<std::uint64_t>(workers));
    json.field("rounds", static_cast<std::uint64_t>(results.size()));
    json.field("wall_s", wall);
    json.field("rounds_per_sec", static_cast<double>(results.size()) / wall);
    json.field("speedup", serial_seconds / wall);
  }
  bench::print_rule(50);
  std::printf(
      "workers=0 is the serial inline reference. Rounds are independent\n"
      "isolated worlds, so on an N-core host the expected speedup at N\n"
      "workers is ~Nx (acceptance: >=3x at 8 workers on >=4 cores).\n");

  bench::print_header(
      "probe cache — hit rate across repeated analysis (testbed pipeline)");
  {
    // Scope the obs snapshot to the cache experiment: the counters below
    // (core.rounds_executed / core.rounds_from_cache) should describe the
    // three analysis passes, not the throughput sweep above.
    obs::reset_all();
    WorldSpec spec;
    RoundScheduler scheduler(spec, {.workers = cores > 1 ? 4u : 0u,
                                    .cache_capacity = 8192});
    const auto app = trace::amazon_video_trace(8 * 1024);
    std::printf("%-22s %10s %10s %10s %9s\n", "pass", "submitted", "executed",
                "cached", "hit rate");
    bench::print_rule(66);
    double total_analysis_wall = 0;
    for (int pass = 1; pass <= 3; ++pass) {
      auto start = Clock::now();
      SessionReport report = analyze(scheduler, app);
      double wall = seconds_since(start);
      total_analysis_wall += wall;
      std::printf("analysis #%d %8.3fs %10llu %10llu %10llu %8.1f%%\n", pass,
                  wall,
                  static_cast<unsigned long long>(scheduler.rounds_submitted()),
                  static_cast<unsigned long long>(scheduler.rounds_executed()),
                  static_cast<unsigned long long>(scheduler.rounds_from_cache()),
                  100.0 * scheduler.cache().hit_rate());
      json.row("analysis_pass=" + std::to_string(pass));
      json.field("wall_s", wall);
      json.field("rounds_submitted", scheduler.rounds_submitted());
      json.field("rounds_executed", scheduler.rounds_executed());
      json.field("rounds_from_cache", scheduler.rounds_from_cache());
      json.field("cache_hit_rate", scheduler.cache().hit_rate());
      if (pass == 1) {
        std::printf("  (selected technique: %s, %d logical rounds)\n",
                    report.selected_technique.value_or("(none)").c_str(),
                    report.total_rounds);
        json.metric("selected_technique",
                    report.selected_technique.value_or("(none)"));
      }
    }
    bench::print_rule(66);

    // Fold the observability snapshot into the JSON artifact: the same
    // story (executed vs cached, per-round latency) as told by the obs
    // layer's own counters and HDR histogram. At LIBERATE_OBS_LEVEL=0 these
    // counters are absent and the metrics below report zero.
    obs::Snapshot snap = obs::capture();
    std::uint64_t obs_executed = 0, obs_cached = 0;
    for (const auto& [name, total] : snap.metrics.counters) {
      if (name == "core.rounds_executed") obs_executed = total;
      if (name == "core.rounds_from_cache") obs_cached = total;
    }
    json.metric("obs_rounds_executed", obs_executed);
    json.metric("obs_rounds_from_cache", obs_cached);
    json.metric("obs_cache_hit_rate",
                obs_executed + obs_cached == 0
                    ? 0.0
                    : static_cast<double>(obs_cached) /
                          static_cast<double>(obs_executed + obs_cached));
    json.metric("obs_rounds_per_sec",
                total_analysis_wall == 0
                    ? 0.0
                    : static_cast<double>(obs_executed + obs_cached) /
                          total_analysis_wall);
    for (const auto& [name, h] : snap.metrics.hdr_histograms) {
      if (name != "core.round_latency_us") continue;
      json.metric("round_virtual_seconds_count", h.count);
      json.metric("round_virtual_seconds_sum",
                  static_cast<double>(h.sum) / 1e6);
    }
    std::printf(
        "pass 1 is all misses; passes 2-3 re-ask every probe and the cache\n"
        "answers them without replaying — executed stays flat while the hit\n"
        "rate climbs toward the repeat fraction of the workload.\n");
  }
  return 0;
}
