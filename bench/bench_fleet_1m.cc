// bench_fleet_1m — the million-flow soak. One process, shard-affine packet-
// level flows through every shim, a classifier change dropped mid-run, and
// snapshot-delta merging feeding the control plane. Reports:
//
//  * soak throughput (flows/sec) and the number of flows actually resident
//    in the shim flow tables when the run ended (the "concurrent" claim);
//  * snapshot-delta compression: counter entries shipped to the merge point
//    vs. what dense full-report merging would have shipped;
//  * the merge-equivalence matrix at reduced size: delta-merged reports must
//    be byte-identical to the serial compiled-backend run across
//    {serial, 2, 8} workers x {reference, compiled} match backends.
//
// Default is 1M flows (~8 GB-scale traffic through the simulated path); CI
// smoke runs `--flows 65536`. Mixed traffic: every 4th flow uploads the
// decoy (non-matching) payload instead of the classified one.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/common.h"
#include "core/evasion/registry.h"
#include "deploy/fleet.h"
#include "dpi/match_program.h"
#include "dpi/normalizer.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "trace/generators.h"

using namespace liberate;
using namespace liberate::deploy;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void reset_obs() {
  obs::reset_all();
  obs::TimeSeriesStore::instance().reset();
}

FleetOptions packet_options(std::size_t shards, std::size_t flows_per_wave,
                            std::size_t waves) {
  FleetOptions opts;
  opts.shards = shards;
  opts.flows_per_wave = flows_per_wave;
  opts.waves = waves;
  opts.flow_mode = FlowMode::kPacketLevel;
  opts.packet_alt_payload = core::decoy_request_payload();
  opts.packet_alt_every = 4;  // every 4th flow is benign cross-traffic
  return opts;
}

/// The classifier change dropped mid-soak: the middlebox learns to
/// reassemble fragments, which defeats fragmentation-family techniques and
/// must push the fleet through its drift -> readapt walk at full scale.
void add_normalizer(dpi::Environment& env) {
  dpi::NormalizerConfig cfg;
  cfg.reassemble_fragments = true;
  env.net.emplace_at<dpi::NormalizerElement>(0, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t flows_target = 1'000'000;
  std::size_t shards = 8;
  std::size_t waves = 8;
  std::size_t workers = 8;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--flows") == 0) {
      flows_target = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--waves") == 0) {
      waves = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      workers = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  const std::size_t flows_per_wave =
      std::max<std::size_t>(1, flows_target / (shards * waves));
  const std::size_t flows_total = flows_per_wave * shards * waves;

  bench::JsonReport json("fleet_1m");
  json.set_workers(static_cast<int>(workers));
  const auto trace = trace::amazon_video_trace(4 * 1024);

  bench::print_header("million-flow soak (packet-level, delta merge)");
  std::printf("flows=%zu shards=%zu waves=%zu workers=%zu\n", flows_total,
              shards, waves, workers);
  {
    reset_obs();
    FleetOptions opts = packet_options(shards, flows_per_wave, waves);
    opts.workers = workers;
    // Every flow stays resident: the cap is sized so the soak never evicts,
    // which is the point — a million live flow-table entries in one process.
    opts.max_flows_per_shim = flows_total / shards + flows_per_wave;
    opts.change_at_wave = waves / 2;
    opts.classifier_change = add_normalizer;

    FleetEngine engine(opts);
    const auto start = Clock::now();
    const FleetReport report = engine.run(trace);
    const double wall = seconds_since(start);

    const double fps = static_cast<double>(report.totals.flows) / wall;
    const double compression =
        report.delta_entries_shipped == 0
            ? 0.0
            : static_cast<double>(report.delta_entries_full) /
                  static_cast<double>(report.delta_entries_shipped);
    std::printf("  wall          %8.2f s\n", wall);
    std::printf("  flows/sec     %8.0f\n", fps);
    std::printf("  resident      %8llu (evicted %llu)\n",
                static_cast<unsigned long long>(report.flows_resident),
                static_cast<unsigned long long>(report.flows_evicted));
    std::printf("  incomplete    %8llu\n",
                static_cast<unsigned long long>(report.totals.incomplete));
    std::printf("  delta entries %8llu shipped / %llu full (%.2fx)\n",
                static_cast<unsigned long long>(report.delta_entries_shipped),
                static_cast<unsigned long long>(report.delta_entries_full),
                compression);
    std::printf("  readapts      %8llu (%s -> %s)\n",
                static_cast<unsigned long long>(report.readapts),
                report.technique_initial.c_str(),
                report.technique_final.c_str());

    json.metric("flows_total", static_cast<std::uint64_t>(report.totals.flows));
    json.metric("flows_resident", report.flows_resident);
    json.metric("flows_evicted", report.flows_evicted);
    json.metric("incomplete",
                static_cast<std::uint64_t>(report.totals.incomplete));
    json.metric("wall_s", wall);
    json.metric("flows_per_sec", fps);
    json.metric("delta_entries_shipped", report.delta_entries_shipped);
    json.metric("delta_entries_full", report.delta_entries_full);
    json.metric("delta_compression", compression);
    json.metric("readapts", report.readapts);
    json.metric("soak_ok", report.flows_resident ==
                               static_cast<std::uint64_t>(flows_total) &&
                               report.totals.incomplete == 0);
  }

  // Merge-equivalence matrix, reduced size so it stays cheap at any obs
  // level: a delta-merged report must be byte-identical to the serial
  // compiled-backend run for every worker count and match backend.
  bench::print_header("delta-merge equivalence matrix (reduced size)");
  {
    auto run_with = [&](std::size_t w) {
      reset_obs();
      FleetOptions opts = packet_options(4, 64, 3);
      opts.workers = w;
      opts.max_flows_per_shim = 1 << 14;
      FleetEngine engine(opts);
      const FleetReport r = engine.run(trace);
      return r.summary() + r.telemetry_json;
    };
    dpi::set_match_backend(dpi::MatchBackend::kCompiled);
    const std::string baseline = run_with(0);
    bool identical = true;
    for (auto backend :
         {dpi::MatchBackend::kReference, dpi::MatchBackend::kCompiled}) {
      dpi::set_match_backend(backend);
      for (std::size_t w : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
        const bool same = run_with(w) == baseline;
        identical = identical && same;
        std::printf("  backend=%s workers=%zu  %s\n",
                    backend == dpi::MatchBackend::kReference ? "reference"
                                                             : "compiled ",
                    w, same ? "identical" : "DIVERGED");
      }
    }
    dpi::set_match_backend(dpi::MatchBackend::kCompiled);
    json.metric("merge_identical", identical);
    if (!identical) {
      json.write();
      return 1;
    }
  }
  return 0;
}
