// video_unthrottling — lib·erate against a T-Mobile-style zero-rater/shaper
// (§6.2), including runtime adaptation when the operator changes the rules.
//
// Binge On both zero-rates and throttles classified video. Evading
// classification trades the zero-rating away for full-rate delivery — the
// paper's 1.48 -> 4.1 Mbps headline. This example also flips the classifier
// rules mid-session and shows the re-adaptation ladder
// (deploy::incremental_readapt) recovering.
#include <cstdio>

#include "core/liberate.h"
#include "deploy/recharacterize.h"
#include "trace/generators.h"
#include "util/strings.h"

using namespace liberate;
using namespace liberate::core;

namespace {

double replay_video_mbps(ReplayRunner& runner, Technique* technique,
                         const TechniqueContext& ctx, std::uint16_t port) {
  ReplayOptions opts;
  opts.technique = technique;
  opts.context = ctx;
  opts.server_port_override = port;
  auto out = runner.run(trace::amazon_video_trace(512 * 1024), opts);
  return out.completed ? out.goodput_mbps : 0.0;
}

}  // namespace

int main() {
  auto env = dpi::make_tmus();
  env->base_bandwidth->set_rate(8e6 / 8);  // an 8 Mbps radio link today
  Liberate lib(*env);

  std::printf("=== analysis over the zero-rating signal ===\n");
  auto app = trace::amazon_video_trace(220 * 1024);
  auto report = lib.analyze(app);
  std::printf("content-based differentiation: %s\n",
              report.detection.content_based ? "yes" : "no");
  for (const auto& f : report.characterization.fields) {
    std::printf("classifier matches: \"%s\"\n",
                printable(BytesView(f.content), 44).c_str());
  }
  std::printf("selected technique: %s\n\n",
              report.selected_technique.value_or("(none)").c_str());

  std::printf("=== throughput: shaped vs evaded ===\n");
  ReplayRunner& runner = lib.runner();
  const TechniqueContext ctx = deployment_context(report);
  auto chosen = lib.instantiate(report.selected_technique.value_or(""));
  double shaped = replay_video_mbps(runner, nullptr, ctx, 34001);
  double freed = replay_video_mbps(runner, chosen.get(), ctx, 34002);
  std::printf("video goodput without lib.erate: %.2f Mbps (Binge On pins "
              "video at 1.5)\n", shaped);
  std::printf("video goodput with lib.erate:    %.2f Mbps (radio-limited)\n\n",
              freed);

  std::printf("=== the operator moves the goalposts ===\n");
  {
    // Countermeasure deployment: classification now keys on the SERVER
    // response (Content-Type), and the box stops flushing state on RSTs —
    // killing both keyword-targeting and RST-flush techniques at once.
    auto rules = env->dpi->engine().rules();
    for (auto& r : rules) {
      if (r.name == "tmus-host-cloudfront") {
        r.keywords = {"Content-Type: video/mp4"};
      }
    }
    env->dpi->engine().set_rules(rules);
    auto harder = env->dpi->engine().config();
    harder.flush_flow_on_rst = false;
    env->dpi->engine().set_config(harder);
  }
  auto verdict = deploy::incremental_readapt(
      lib, app, deploy::make_cached_characterization(env->name, app.app_name,
                                                     report),
      nullptr);
  if (verdict.path == deploy::ReadaptPath::kStillWorking) {
    std::printf("old technique still works (%d verification round)\n",
                verdict.report.total_rounds);
  } else {
    const auto& fresh = verdict.report;
    std::printf("rule change detected; re-adapted via %s (%d rounds). "
                "fields:\n",
                deploy::readapt_path_name(verdict.path), fresh.total_rounds);
    for (const auto& f : fresh.characterization.fields) {
      std::printf("  \"%s\"\n", printable(BytesView(f.content), 44).c_str());
    }
    std::printf("new selected technique: %s\n",
                fresh.selected_technique.value_or("(none)").c_str());
  }

  std::printf("\n=== the UDP loophole ===\n");
  auto udp = runner.run(trace::make_generic_udp_trace());
  std::printf("UDP (QUIC-like) flow classified: %s — \"YouTube traffic that\n"
              "uses QUIC is not throttled or zero rated\" (§6.2)\n",
              runner.differentiated(udp) ? "yes" : "no");
  return 0;
}
