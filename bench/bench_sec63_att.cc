// bench_sec63_att — §6.3 "AT&T Stream Saver": analysis efficiency over the
// throughput signal, the matching fields (request keywords AND response
// Content-Type), the finding that no packet-level technique evades a
// TCP-terminating proxy, and the trivial port-change evasion.
#include <cstdio>

#include "bench/common.h"
#include "core/evaluation.h"
#include "trace/generators.h"
#include "util/strings.h"

using namespace liberate;
using namespace liberate::core;

int main() {
  bench::JsonReport json("sec63_att");
  auto env = dpi::make_att();
  ReplayRunner runner(*env);
  auto app = trace::nbcsports_trace(1536 * 1024);

  bench::print_header("§6.3 AT&T Stream Saver — classifier analysis");
  auto report = characterize_classifier(runner, app,
                                        {.probe_ttl = false});
  std::printf(
      "rounds=%d (paper: 71)  data=%.1f MB (paper: ~2 MB/round)\n"
      "virtual=%.0f min\n",
      report.replay_rounds, static_cast<double>(report.bytes_replayed) / 1e6,
      report.virtual_seconds / 60.0);
  bool response_side_field = false;
  for (const auto& f : report.fields) {
    std::printf("  field: msg %zu \"%s\"%s\n", f.message_index,
                printable(BytesView(f.content), 44).c_str(),
                f.message_index >= 1 ? "  <- server-to-client" : "");
    if (f.message_index >= 1) response_side_field = true;
  }
  std::printf(
      "server-to-client content used for classification: %s (paper: yes —\n"
      "the keyword Content-Type: video)\n",
      response_side_field ? "yes" : "no");
  std::printf("port-sensitive: %s (paper: only port 80 is classified)\n",
              report.port_sensitive ? "yes" : "no");
  json.metric("characterization_rounds", report.replay_rounds);
  json.metric("bytes_replayed",
              static_cast<std::uint64_t>(report.bytes_replayed));
  json.metric("response_side_field", response_side_field);
  json.metric("port_sensitive", report.port_sensitive);

  bench::print_header("§6.3 — evasion against a TCP-terminating proxy");
  auto eval = evaluate_suite(runner, report, app, /*run_pruned=*/true);
  int attempted = 0, worked = 0;
  for (const auto& o : eval.outcomes) {
    if (o.technique.find("udp") != std::string::npos) continue;
    attempted += 1;
    if (o.changed_classification) worked += 1;
  }
  std::printf(
      "packet-level techniques that changed classification: %d/%d (paper: "
      "0 —\n\"None of the evasion techniques is effective for Stream Saver\")\n",
      worked, attempted);

  // The straightforward alternative: a different server port.
  auto moved = app;
  moved.server_port = 8080;
  auto outcome = runner.run(moved);
  std::printf(
      "video on port 8080: completed=%s goodput=%.1f Mbps (paper: moving off\n"
      "port 80 \"makes evading it even more straightforward\")\n",
      outcome.completed ? "yes" : "no", outcome.goodput_mbps);
  std::printf("proxy sessions opened=%llu, throttled=%llu, crafted packets "
              "absorbed=%llu\n",
              static_cast<unsigned long long>(env->proxy->sessions_opened()),
              static_cast<unsigned long long>(env->proxy->throttled_sessions()),
              static_cast<unsigned long long>(
                  env->proxy->crafted_packets_absorbed()));
  json.metric("techniques_attempted", attempted);
  json.metric("techniques_changed_classification", worked);
  json.metric("port_8080_completed", outcome.completed);
  json.metric("port_8080_goodput_mbps", outcome.goodput_mbps);
  json.metric("proxy_sessions_opened", env->proxy->sessions_opened());
  json.metric("proxy_sessions_throttled", env->proxy->throttled_sessions());
  return 0;
}
