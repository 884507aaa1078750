// bench_sec66_iran — §6.6 "Iran": analysis efficiency over the 403+RST
// signal, the port-80-only + inspect-every-packet classifier, the
// misclassification footnote (an inert packet carrying blocked content gets
// the flow blocked), per-packet matching beaten by splitting, and fragments
// dying in the path.
#include <cstdio>

#include "bench/common.h"
#include "core/evaluation.h"
#include "trace/generators.h"
#include "util/strings.h"

using namespace liberate;
using namespace liberate::core;

int main() {
  bench::JsonReport json("sec66_iran");
  auto env = dpi::make_iran();
  ReplayRunner runner(*env);
  auto app = trace::facebook_trace();

  bench::print_header("§6.6 Iran — blocking signal");
  {
    auto out = runner.run(app);
    std::printf(
        "facebook.com over HTTP: blocked=%s got-403=%s rsts=%llu (paper:\n"
        "\"HTTP/1.1 403 Forbidden\" plus two RST packets)\n",
        out.blocked ? "yes" : "no", out.got_403 ? "yes" : "no",
        static_cast<unsigned long long>(out.rsts_at_client));
    json.metric("http_blocked", out.blocked);
    json.metric("got_403", out.got_403);
    json.metric("rsts_at_client",
                static_cast<std::uint64_t>(out.rsts_at_client));
  }

  bench::print_header("§6.6 — classifier analysis");
  auto report = characterize_classifier(runner, app);
  std::printf(
      "rounds=%d (paper: 75 replays, ~10 min, 300 KB)  data=%.0f KB\n"
      "virtual=%.1f min\n",
      report.replay_rounds,
      static_cast<double>(report.bytes_replayed) / 1024.0,
      report.virtual_seconds / 60.0);
  for (const auto& f : report.fields) {
    std::printf("  field: \"%s\"\n",
                printable(BytesView(f.content), 44).c_str());
  }
  std::printf(
      "inspects-every-packet=%s (paper: yes — 1,000 prepended packets made\n"
      "no difference)\nport-sensitive=%s (paper: yes — port 8080 is not "
      "blocked)\nmiddlebox hops=%d (paper: eight hops away)\n",
      report.inspects_all_packets ? "yes" : "no",
      report.port_sensitive ? "yes" : "no", report.middlebox_hops.value_or(-1));
  json.metric("characterization_rounds", report.replay_rounds);
  json.metric("bytes_replayed",
              static_cast<std::uint64_t>(report.bytes_replayed));
  json.metric("inspects_all_packets", report.inspects_all_packets);
  json.metric("port_sensitive", report.port_sensitive);
  json.metric("middlebox_hops", report.middlebox_hops.value_or(-1));

  bench::print_header(
      "§6.6 — misclassification: inert packet WITH blocked content");
  {
    // A flow with entirely innocuous content, preceded by a TTL-limited
    // inert packet whose payload contains the censored request: Iran
    // inspects every packet, so the inert packet itself triggers blocking.
    auto env2 = dpi::make_iran();
    ReplayRunner runner2(*env2);
    auto innocuous = trace::plain_web_trace();
    InertInsertion bait(InertVariant::kLowTtl);
    ReplayOptions opts;
    opts.technique = &bait;
    opts.context.decoy_payload =
        Bytes(app.messages[0].payload);  // the blocked GET as "decoy"
    opts.context.middlebox_ttl = 8;
    auto out = runner2.run(innocuous, opts);
    std::printf(
        "innocuous flow preceded by inert packet carrying the blocked GET:\n"
        "blocked=%s (paper note 3: \"an inert packet with blocked content\n"
        "causes the connection to be blocked\")\n",
        out.blocked ? "yes" : "no");
  }

  bench::print_header("§6.6 — evasion");
  EvasionEvaluator evaluator(runner, report);
  {
    TcpSegmentSplit split(false);
    TcpSegmentSplit reorder(true);
    IpFragmentSplit frag(false);
    auto s = evaluator.evaluate_one(split, app);
    auto r = evaluator.evaluate_one(reorder, app);
    auto f = evaluator.evaluate_one(frag, app);
    std::printf(
        "payload splitting evades: %s (paper: yes — per-packet matcher)\n"
        "splitting + reordering evades: %s (paper: yes)\n"
        "IP fragmentation: evades=%s, fragments reached server=%s (paper:\n"
        "no / no — \"IP fragments were dropped before reaching our "
        "server\")\n",
        s.evaded ? "yes" : "no", r.evaded ? "yes" : "no",
        f.changed_classification ? "yes" : "no",
        f.crafted_reached_server ? "yes" : "no");
    json.metric("splitting_evades", s.evaded);
    json.metric("reordering_evades", r.evaded);
    json.metric("fragmentation_evades", f.changed_classification);
  }
  {
    auto eval = evaluate_suite(runner, report, app, /*run_pruned=*/false);
    std::printf("production suite (after pruning) selected: %s\n",
                eval.selected.value_or("(none)").c_str());
    json.metric("selected_technique", eval.selected.value_or("(none)"));
    std::printf(
        "pruning dropped inert insertion and flushing entirely (paper:\n"
        "\"inert packet insertion techniques do not work ... the classifier\n"
        "inspects every packet in a flow\")\n");
  }
  return 0;
}
