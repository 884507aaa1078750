// bench_ablation_countermeasures — §4.3 "Evasion countermeasures": what each
// defensive upgrade costs lib·erate's suite.
//
// Starting from the (most permissive) testbed classifier, deploy the
// countermeasures the paper enumerates, cumulatively:
//   A  baseline testbed
//   B  + traffic normalizer (drop malformed inert packets, raise low TTLs,
//        reassemble fragments) — Kreibich-style `norm`
//   C  + full byte-stream reassembly, out-of-order handling, no packet
//        window, sequence validation
//   D  + durable state (no RST flush, no result timeout, no idle eviction)
// and count how many of the 26 techniques still evade. The paper's claim:
// every technique has a countermeasure ("intrinsic to unilateral evasion"),
// but each one costs the operator state/processing.
#include <cstdio>

#include "bench/common.h"
#include "core/evaluation.h"
#include "dpi/normalizer.h"
#include "trace/generators.h"
#include "util/strings.h"

namespace {

using namespace liberate;
using namespace liberate::core;

struct Tier {
  const char* name;
  bool normalizer;
  bool full_reassembly;
  bool durable_state;
};

std::unique_ptr<dpi::Environment> build_env(const Tier& tier) {
  auto base = dpi::make_testbed();
  dpi::MiddleboxConfig mc = base->dpi->config();

  if (tier.full_reassembly) {
    mc.classifier.mode = dpi::ClassifierConfig::Mode::kStream;
    mc.classifier.stream_handles_out_of_order = true;
    mc.classifier.packet_inspection_limit = 0;
    mc.classifier.validate_tcp_seq = true;
  }
  if (tier.durable_state) {
    mc.classifier.flush_flow_on_rst = false;
    mc.classifier.result_cache_after_rst.reset();
    mc.classifier.result_timeout.reset();
    mc.classifier.idle_eviction_threshold = nullptr;
  }

  auto env = std::make_unique<dpi::Environment>();
  env->name = std::string("testbed+") + tier.name;
  env->signal = dpi::Environment::Signal::kDirect;
  env->net.emplace<netsim::RouterHop>(netsim::ip_addr("10.9.1.1"));
  if (tier.normalizer) {
    dpi::NormalizerConfig nc;
    nc.drop_malformed = true;
    nc.ttl_floor = 16;
    nc.reassemble_fragments = true;
    env->net.emplace<dpi::NormalizerElement>(nc);
  }
  env->pre_middlebox_tap = &env->net.emplace<netsim::TapElement>("pre");
  env->dpi = &env->net.emplace<dpi::DpiMiddlebox>(mc);
  env->net.emplace<netsim::RouterHop>(netsim::ip_addr("10.9.1.2"));
  env->hops_before_middlebox = 1;
  env->total_router_hops = 2;
  return env;
}

}  // namespace

int main() {
  const Tier tiers[] = {
      {"baseline", false, false, false},
      {"normalizer", true, false, false},
      {"normalizer+reassembly", true, true, false},
      {"normalizer+reassembly+durable-state", true, true, true},
  };

  bench::print_header(
      "Ablation — §4.3 countermeasures vs the 26-technique suite (TCP video "
      "flow)");
  std::printf("%-40s %8s %8s  %s\n", "countermeasure tier", "evading",
              "CC-only", "surviving techniques");
  bench::print_rule(100);

  bench::JsonReport json("ablation_countermeasures");
  int previous = -1;
  for (const Tier& tier : tiers) {
    auto env = build_env(tier);
    ReplayRunner runner(*env);
    auto app = trace::amazon_video_trace(48 * 1024);
    CharacterizationOptions copts;
    copts.unique_port_per_round = true;
    auto report = characterize_classifier(runner, app, copts);
    auto eval = evaluate_suite(runner, report, app, /*run_pruned=*/true);

    int evading = 0;
    int cc_only = 0;
    std::string survivors;
    int listed = 0;
    for (const auto& o : eval.outcomes) {
      if (o.technique.find("udp") != std::string::npos) continue;
      if (o.evaded) {
        evading += 1;
        if (listed < 5) {
          if (!survivors.empty()) survivors += ", ";
          survivors += o.technique;
          listed += 1;
        }
      } else if (o.changed_classification) {
        cc_only += 1;
      }
    }
    if (evading > listed) {
      survivors += format(", +%d more", evading - listed);
    }
    std::printf("%-40s %8d %8d  %s\n", tier.name, evading, cc_only,
                survivors.c_str());
    json.row(tier.name);
    json.field("evading", evading);
    json.field("cc_only", cc_only);
    json.field("survivors", survivors);
    if (previous >= 0 && evading > previous) {
      std::printf("  (!) countermeasure tier did not reduce the surface\n");
    }
    previous = evading;
  }
  bench::print_rule(100);
  std::printf(
      "paper: \"all of our evasion techniques are susceptible to "
      "countermeasures...\nintrinsic to unilateral evasion\" — but each tier "
      "costs the operator packet\nnormalization, full reassembly, or "
      "long-lived per-flow state (\"engineering such\nsolutions will become "
      "only more costly as connection volumes continue to increase\").\n");
  return 0;
}
