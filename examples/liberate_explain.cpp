// liberate_explain — replay a scenario and explain a flow's verdict from the
// provenance flight recorder.
//
//   liberate_explain [network] [application]     (default: testbed skype)
//
// Runs the full analysis pipeline, then two focused replay rounds — one
// plain, one with the selected evasion technique — and prints, for each
// flow, the recorder's causal chain: which rules the classifier tried, the
// byte offsets that matched, the verdict and middlebox action, and (for the
// evasion round) the mutation lineage of every crafted packet. Also exports:
//
//   examples/out/<net>_<app>_trace.json     Chrome trace-event JSON
//                                           (open in chrome://tracing)
//   examples/out/<net>_<app>_annotated.pcapng
//                                           wire capture with per-packet
//                                           provenance comments (Wireshark
//                                           shows them in the packet list)
//
// Output lines are machine-splittable by prefix: ANALYSIS is the analysis
// report alone and is byte-identical across LIBERATE_OBS_LEVEL settings;
// EXPLAIN-JSON carries the structured explanation (empty-ish at level 0,
// where the instrumentation compiles to nothing).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/liberate.h"
#include "core/report_io.h"
#include "obs/provenance/chrome_trace.h"
#include "obs/provenance/explain.h"
#include "obs/snapshot.h"
#include "trace/generators.h"
#include "trace/pcapng.h"

using namespace liberate;

namespace {

trace::ApplicationTrace app_by_name(const std::string& name) {
  if (name == "video") return trace::amazon_video_trace(128 * 1024);
  if (name == "music") return trace::spotify_trace(64 * 1024);
  if (name == "youtube") return trace::youtube_tls_trace(128 * 1024);
  if (name == "nbcsports") return trace::nbcsports_trace(1024 * 1024);
  if (name == "economist") return trace::economist_trace();
  if (name == "facebook") return trace::facebook_trace();
  if (name == "skype") return trace::make_skype_trace({});
  if (name == "plain") return trace::plain_web_trace();
  return {};
}

obs::prov::FlowKey key_of(const netsim::FiveTuple& t) {
  return obs::prov::flow_key(t.src_ip, t.src_port, t.dst_ip, t.dst_port,
                             t.protocol);
}

/// Per-packet pcapng comment: the packet's lineage as recorded. At obs
/// level 0 the recorder is empty and the comment degrades to the digest.
std::string comment_for(const obs::prov::ProvenanceRecorder& rec,
                        BytesView datagram) {
  const std::uint64_t id = obs::prov::packet_id(datagram);
  std::string c = "pkt " + obs::prov::id_hex(id);
  if (auto n = rec.node(id)) {
    c += " (" + n->kind + ", " + std::to_string(n->size) + "B)";
  }
  for (const obs::prov::EdgeInfo& e : rec.parents_of(id)) {
    c += "; " + e.kind + " of " + obs::prov::id_hex(e.parent) + " by " +
         e.actor;
    if (!e.detail.empty()) c += " [" + e.detail + "]";
  }
  return c;
}

void explain_and_print(const char* label, const obs::prov::FlowKey& flow) {
  obs::prov::Explanation ex = obs::prov::explain_verdict(flow);
  std::printf("---- %s ----\n%s", label, ex.text.c_str());
  std::printf("EXPLAIN-JSON %s\n", ex.json.c_str());
}

int usage() {
  std::fprintf(stderr, "usage: liberate_explain [network] [application]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string network = argc > 1 ? argv[1] : "testbed";
  const std::string application = argc > 2 ? argv[2] : "skype";
  if (argc > 3) return usage();

  obs::reset_all();
  auto env = dpi::make_environment(network);
  if (env == nullptr) {
    std::fprintf(stderr, "unknown network '%s'\n", network.c_str());
    return usage();
  }
  auto app = app_by_name(application);
  if (app.app_name.empty()) {
    std::fprintf(stderr, "unknown application '%s'\n", application.c_str());
    return usage();
  }

  env->loop.run_until(netsim::hours(16));  // afternoon, busy hours
  core::Liberate lib(*env);
  auto report = lib.analyze(app);

  // Deterministic across obs levels: the recorder never feeds back into
  // analysis. CI diffs this line between level-0 and level-2 builds.
  std::printf("ANALYSIS %s\n", core::analysis_report_json(report).c_str());

  core::ReplayRunner& runner = lib.runner();
  std::vector<trace::PcapngRecord> capture;
  const auto& rec = obs::prov::ProvenanceRecorder::instance();

  auto tap_into_capture = [&] {
    if (env->pre_middlebox_tap == nullptr) return;
    for (const netsim::TapElement::Seen& s : env->pre_middlebox_tap->seen()) {
      capture.push_back({s.at, Bytes(s.datagram.begin(), s.datagram.end()),
                         comment_for(rec, s.datagram)});
    }
    env->pre_middlebox_tap->clear();
  };

  // Round 1: plain replay. The explanation names the rule that classified
  // the flow and the byte offsets its keywords matched at.
  if (env->pre_middlebox_tap != nullptr) env->pre_middlebox_tap->clear();
  core::ReplayOutcome plain = runner.run(app);
  tap_into_capture();
  explain_and_print("plain replay", key_of(plain.flow));

  // Round 2: replay through a working evasion technique. The explanation
  // shows the mutation lineage — which packets were split/injected, from
  // which parent, by which technique. Prefer techniques that craft packets
  // (splits, then insertions) from the evaded set, since those have
  // parent->child lineage; fall back to whatever the pipeline selected.
  std::string pick = report.selected_technique.value_or("");
  for (const char* prefix : {"split/", "inert/"}) {
    bool found = false;
    for (const auto& o : report.evaluation.outcomes) {
      if (o.evaded && o.technique.rfind(prefix, 0) == 0) {
        pick = o.technique;
        found = true;
        break;
      }
    }
    if (found) break;
  }
  if (!pick.empty() && report.ran_characterization) {
    const auto& c = report.characterization;
    core::RoundRequest evasion;
    evasion.trace = app;
    evasion.technique = pick;
    evasion.context = core::technique_context(c);
    if (!c.port_sensitive) evasion.server_port_override = 36000;
    core::ReplayOutcome evaded = runner.run(evasion).outcome;
    tap_into_capture();
    std::printf("technique=%s evaded=%s\n", pick.c_str(),
                evaded.blocked || !evaded.completed ? "no" : "yes");
    explain_and_print("evasion replay", key_of(evaded.flow));
  } else {
    std::printf("no evasion technique selected; skipping evasion replay\n");
  }

  // Export artifacts under examples/out/ (gitignored), never the repo root.
  std::filesystem::create_directories("examples/out");
  const std::string stem =
      std::string("examples/out/") + network + "_" + application;

  obs::Snapshot snap = obs::capture();
  {
    std::ofstream out(stem + "_trace.json", std::ios::binary);
    const std::string json = obs::prov::to_chrome_trace_json(snap);
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    std::printf("chrome-trace=%s_trace.json events_bytes=%zu\n", stem.c_str(),
                json.size());
  }
  {
    Bytes pcapng = trace::write_pcapng(capture);
    std::ofstream out(stem + "_annotated.pcapng", std::ios::binary);
    out.write(reinterpret_cast<const char*>(pcapng.data()),
              static_cast<std::streamsize>(pcapng.size()));
    std::printf("pcapng=%s_annotated.pcapng packets=%zu\n", stem.c_str(),
                capture.size());
  }
  std::printf(
      "provenance nodes=%zu edges=%zu flows=%zu records=%llu (obs level %d)\n",
      snap.provenance.nodes.size(), snap.provenance.edges.size(),
      snap.provenance.ledgers.size(),
      static_cast<unsigned long long>(snap.provenance.total_records),
      LIBERATE_OBS_LEVEL);
  return 0;
}
