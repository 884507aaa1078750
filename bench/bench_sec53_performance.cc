// bench_sec53_performance — §5.3 "Performance of lib·erate": end-to-end cost
// of the one-time analysis (characterization 10-35 minutes, 300 KB-140 MB)
// and the negligible runtime overhead of deployed evasion.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/common.h"
#include "core/liberate.h"
#include "core/round_scheduler.h"
#include "trace/generators.h"

using namespace liberate;
using namespace liberate::core;

int main() {
  bench::JsonReport json("sec53_performance");
  bench::print_header(
      "§5.3 — one-time analysis cost per environment (rounds / data / "
      "virtual time)");
  std::printf("%-10s %-22s %7s %10s %10s %-28s\n", "network", "application",
              "rounds", "data", "minutes", "selected technique");
  bench::print_rule(92);

  struct Case {
    const char* env;
    trace::ApplicationTrace trace;
  };
  std::vector<Case> cases;
  cases.push_back({"testbed", trace::amazon_video_trace(32 * 1024)});
  cases.push_back({"tmus", trace::amazon_video_trace(220 * 1024)});
  cases.push_back({"gfc", trace::economist_trace()});
  cases.push_back({"iran", trace::facebook_trace()});

  for (auto& c : cases) {
    auto env = dpi::make_environment(c.env);
    env->loop.run_until(netsim::hours(16));
    Liberate lib(*env);
    auto report = lib.analyze(c.trace);
    double mb = static_cast<double>(report.total_bytes) / 1e6;
    std::printf("%-10s %-22s %7d %9.2fM %10.1f %-28s\n", c.env,
                c.trace.app_name.c_str(), report.total_rounds, mb,
                report.total_virtual_minutes,
                report.selected_technique.value_or("(none)").c_str());
    json.row(c.env);
    json.field("application", c.trace.app_name);
    json.field("rounds", report.total_rounds);
    json.field("data_mb", mb);
    json.field("virtual_minutes", report.total_virtual_minutes);
    json.field("selected_technique",
               report.selected_technique.value_or("(none)"));
  }
  bench::print_rule(92);
  std::printf(
      "paper: characterization takes 10-35 minutes and 300 KB (web pages) to\n"
      "140 MB (video streams); it is a one-time cost per classifier rule and\n"
      "results can be shared between users.\n");

  bench::print_header("§5.3 — runtime overhead of deployed evasion");
  {
    auto env = dpi::make_testbed();
    Liberate lib(*env);
    auto app = trace::amazon_video_trace(64 * 1024);
    auto report = lib.analyze(app);
    // Per-flow cost of the selected technique.
    auto suite = build_full_suite();
    for (const auto& t : suite) {
      if (report.selected_technique && t->name() == *report.selected_technique) {
        TechniqueContext ctx;
        ctx.matching_snippets = report.characterization.snippets();
        ctx.decoy_payload = decoy_request_payload();
        Overhead o = t->overhead(ctx);
        double pct = 100.0 * static_cast<double>(o.extra_bytes) /
                     static_cast<double>(app.total_bytes());
        std::printf(
            "selected: %s -> +%zu packets, +%zu bytes (%0.3f%% of a %zu-KB\n"
            "session), +%.1f s  (paper: k < 5 extra packets; \"small\n"
            "fractions of a percent of data overhead\" on video)\n",
            t->name().c_str(), o.extra_packets, o.extra_bytes, pct,
            app.total_bytes() / 1024, o.extra_seconds);
        json.metric("deployed_technique", t->name());
        json.metric("deployed_extra_packets",
                    static_cast<std::uint64_t>(o.extra_packets));
        json.metric("deployed_extra_bytes",
                    static_cast<std::uint64_t>(o.extra_bytes));
        json.metric("deployed_overhead_pct", pct);
      }
    }
  }

  bench::print_header(
      "§5.3 — wall-clock analysis cost, sequential vs parallel scheduler");
  {
    // The one-time analysis above is virtual-time accounting; this measures
    // the real seconds the reproduction burns producing it, and how the
    // parallel scheduler + probe cache shrink that on multi-core hosts.
    const unsigned cores = std::thread::hardware_concurrency();
    const auto app = trace::amazon_video_trace(32 * 1024);
    using Clock = std::chrono::steady_clock;

    auto seq_start = Clock::now();
    auto env = dpi::make_testbed();
    Liberate lib(*env);
    auto seq_report = lib.analyze(app);
    double seq_wall =
        std::chrono::duration<double>(Clock::now() - seq_start).count();

    std::printf("%-26s %8s %10s %10s %9s\n", "mode", "rounds", "wall s",
                "speedup", "hit rate");
    bench::print_rule(68);
    std::printf("%-26s %8d %10.3f %10s %9s\n", "sequential (Liberate)",
                seq_report.total_rounds, seq_wall, "1.00x", "-");
    for (std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
      WorldSpec spec;
      RoundScheduler scheduler(spec, {.workers = workers});
      auto start = Clock::now();
      auto report = analyze(scheduler, app);
      double wall = std::chrono::duration<double>(Clock::now() - start).count();
      char mode[32];
      std::snprintf(mode, sizeof(mode), "parallel, %zu worker(s)", workers);
      std::printf("%-26s %8d %10.3f %9.2fx %8.1f%%\n", mode,
                  report.total_rounds, wall, seq_wall / wall,
                  100.0 * scheduler.cache().hit_rate());
      json.row(mode);
      json.field("rounds", report.total_rounds);
      json.field("wall_s", wall);
      json.field("speedup_vs_sequential", seq_wall / wall);
      json.field("cache_hit_rate", scheduler.cache().hit_rate());
    }
    bench::print_rule(68);
    std::printf(
        "%u core(s) visible; rounds are isolated worlds, so speedup tracks\n"
        "core count (see bench_parallel_rounds for the full scaling curve).\n",
        cores);
  }
  return 0;
}
