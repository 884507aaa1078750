// bench_sec62_tmus — §6.2 "T-Mobile US": classifier analysis efficiency over
// the laggy/noisy zero-rating signal, identified matching fields (Host and
// SNI), and the headline throughput result: Amazon Prime Video replay at
// 1.48 Mbps average without lib·erate vs 4.1 Mbps with evasion (peak 4.8 vs
// 11.2 Mbps).
#include <cstdio>

#include "bench/common.h"
#include "core/liberate.h"
#include "trace/generators.h"
#include "util/strings.h"

using namespace liberate;
using namespace liberate::core;

namespace {

/// Replay a video trace with a time-varying base bandwidth (as a cellular
/// link has), with and without the selected technique, and report
/// average/peak application goodput. The base-rate schedule is deterministic.
struct ThroughputResult {
  double avg_mbps = 0;
  double peak_mbps = 0;
};

ThroughputResult measure_video(dpi::Environment& env, ReplayRunner& runner,
                               Technique* technique,
                               const TechniqueContext& ctx,
                               std::uint16_t port) {
  // A real radio link's capacity varies over time; replay the 10 MB-ish
  // session in segments under a deterministic rate schedule (Mbps) and
  // report mean and peak goodput across segments.
  ThroughputResult r;
  const double kRadioScheduleMbps[] = {3.0, 4.8, 7.0, 5.5, 2.5, 8.0};
  double total_mbps = 0;
  int n = 0;
  for (double rate : kRadioScheduleMbps) {
    if (env.base_bandwidth != nullptr) {
      env.base_bandwidth->set_rate(rate * 1e6 / 8);
    }
    auto t = trace::amazon_video_trace(384 * 1024);
    ReplayOptions opts;
    opts.technique = technique;
    opts.context = ctx;
    opts.server_port_override = port++;
    auto out = runner.run(t, opts);
    if (!out.completed) continue;
    total_mbps += out.goodput_mbps;
    r.peak_mbps = std::max(r.peak_mbps, out.goodput_mbps);
    n += 1;
  }
  if (env.base_bandwidth != nullptr) {
    env.base_bandwidth->set_rate(15e6 / 8);  // restore
  }
  r.avg_mbps = n > 0 ? total_mbps / n : 0;
  return r;
}

}  // namespace

int main() {
  bench::JsonReport json("sec62_tmus");
  auto env = dpi::make_tmus();
  ReplayRunner runner(*env);
  auto app = trace::amazon_video_trace(220 * 1024);

  bench::print_header("§6.2 T-Mobile US (Binge On) — classifier analysis");
  CharacterizationOptions copts;
  auto report = characterize_classifier(runner, app, copts);
  std::printf(
      "rounds=%d (paper: 80-95)  data=%.1f MB (paper: 18 MB; >=200 KB per\n"
      "round against the noisy usage counter)  virtual=%.0f min (paper: 23)\n",
      report.replay_rounds,
      static_cast<double>(report.bytes_replayed) / 1e6,
      report.virtual_seconds / 60.0);
  for (const auto& f : report.fields) {
    std::printf("  field: \"%s\"\n", printable(BytesView(f.content), 48).c_str());
  }
  std::printf("  position-sensitive=%s (paper: 1-byte prepend changes "
              "classification)\n  middlebox hops=%d (paper: TTL=3 suffices)\n",
              report.position_sensitive ? "yes" : "no",
              report.middlebox_hops.value_or(-1));
  json.metric("characterization_rounds", report.replay_rounds);
  json.metric("bytes_replayed",
              static_cast<std::uint64_t>(report.bytes_replayed));
  json.metric("virtual_minutes", report.virtual_seconds / 60.0);
  json.metric("middlebox_hops", report.middlebox_hops.value_or(-1));

  // YouTube via TLS SNI.
  {
    auto env2 = dpi::make_tmus();
    ReplayRunner runner2(*env2);
    CharacterizationOptions o2;
    o2.probe_ttl = false;
    auto r2 = characterize_classifier(runner2, trace::youtube_tls_trace(220 * 1024), o2);
    std::printf("YouTube/TLS: rounds=%d fields:\n", r2.replay_rounds);
    for (const auto& f : r2.fields) {
      std::printf("  field: \"%s\" (SNI bytes)\n",
                  printable(BytesView(f.content), 48).c_str());
    }
  }

  // UDP is not classified: QUIC evades Binge On entirely.
  {
    auto out = runner.run(trace::make_generic_udp_trace());
    std::printf("UDP flow zero-rated/classified: %s (paper: TMUS does not\n"
                "classify UDP; QUIC traffic is neither throttled nor "
                "zero-rated)\n",
                runner.differentiated(out) ? "yes" : "no");
  }

  bench::print_header(
      "§6.2 — Amazon Prime Video replay throughput, with/without lib.erate");
  auto eval = evaluate_suite(runner, report, app, false);
  std::string selected = eval.selected.value_or("(none)");
  auto chosen = make_technique(selected);
  const TechniqueContext context = technique_context(report);

  auto without = measure_video(*env, runner, nullptr, context, 31000);
  auto with = measure_video(*env, runner, chosen.get(), context, 32000);
  std::printf("%-22s %10s %10s\n", "", "avg Mbps", "peak Mbps");
  std::printf("%-22s %10.2f %10.2f   (paper: 1.48 avg, 4.8 peak)\n",
              "without lib.erate", without.avg_mbps, without.peak_mbps);
  std::printf("%-22s %10.2f %10.2f   (paper: 4.1 avg, 11.2 peak)\n",
              "with lib.erate", with.avg_mbps, with.peak_mbps);
  std::printf("selected technique: %s\n", selected.c_str());
  double speedup = without.avg_mbps > 0 ? with.avg_mbps / without.avg_mbps : 0;
  std::printf("speedup: %.1fx (paper: ~2.8x)\n", speedup);
  json.metric("selected_technique", selected);
  json.row("without_liberate");
  json.field("avg_mbps", without.avg_mbps);
  json.field("peak_mbps", without.peak_mbps);
  json.row("with_liberate");
  json.field("avg_mbps", with.avg_mbps);
  json.field("peak_mbps", with.peak_mbps);
  json.metric("throughput_speedup", speedup);
  return 0;
}
