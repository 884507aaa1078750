// liberate_cli — a command-line driver for the whole library.
//
//   liberate_cli <network> <application>
//   liberate_cli --list
//
// networks:     testbed | tmus | gfc | iran | att | sprint
// applications: video | music | youtube | nbcsports | economist | facebook
//               | skype | plain
//
// Runs the four-phase pipeline against the chosen simulated network and
// prints a machine-greppable report, including the per-phase cost and a
// pcapng of the evasion round's wire traffic (written under examples/out/).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/liberate.h"
#include "trace/generators.h"
#include "trace/pcapng.h"
#include "util/strings.h"

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

int usage() {
  std::fprintf(stderr,
               "usage: liberate_cli <network> <application>\n"
               "       liberate_cli --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    std::printf("networks:");
    for (const auto& n : dpi::environment_names()) {
      std::printf(" %s", n.c_str());
    }
    std::printf(
        "\napplications: video music youtube nbcsports economist facebook "
        "skype plain\n");
    return 0;
  }
  if (argc != 3) return usage();

  auto env = dpi::make_environment(argv[1]);
  if (env == nullptr) {
    std::fprintf(stderr, "unknown network '%s'\n", argv[1]);
    return usage();
  }
  auto app = app_by_name(argv[2]);
  if (app.app_name.empty()) {
    std::fprintf(stderr, "unknown application '%s'\n", argv[2]);
    return usage();
  }

  env->loop.run_until(netsim::hours(16));  // afternoon, busy hours
  core::Liberate lib(*env);

  std::printf("network=%s application=%s trace_bytes=%zu\n", argv[1], argv[2],
              app.total_bytes());
  auto report = lib.analyze(app);

  std::printf("differentiation=%s content_based=%s\n",
              report.detection.differentiation ? "yes" : "no",
              report.detection.content_based ? "yes" : "no");
  if (!report.ran_characterization) {
    std::printf("verdict=no-content-based-differentiation\n");
    return 0;
  }

  const auto& c = report.characterization;
  for (const auto& f : c.fields) {
    std::printf("matching_field msg=%zu off=%zu bytes=%zu content=\"%s\"\n",
                f.message_index, f.offset, f.length,
                printable(BytesView(f.content), 60).c_str());
  }
  std::printf(
      "position_sensitive=%s packet_limit=%s inspects_all=%s "
      "port_sensitive=%s middlebox_hops=%d\n",
      c.position_sensitive ? "yes" : "no",
      c.packet_limit ? std::to_string(*c.packet_limit).c_str() : "-",
      c.inspects_all_packets ? "yes" : "no", c.port_sensitive ? "yes" : "no",
      c.middlebox_hops.value_or(-1));

  int evaded = 0;
  for (const auto& o : report.evaluation.outcomes) {
    if (o.pruned) continue;
    std::printf("technique name=%s evaded=%s reaches_server=%s\n",
                o.technique.c_str(), o.evaded ? "yes" : "no",
                o.crafted_reached_server ? "yes" : "no");
    if (o.evaded) ++evaded;
  }
  std::printf("working_techniques=%d selected=%s\n", evaded,
              report.selected_technique.value_or("(none)").c_str());
  std::printf("cost rounds=%d bytes=%llu virtual_minutes=%.1f\n",
              report.total_rounds,
              static_cast<unsigned long long>(report.total_bytes),
              report.total_virtual_minutes);

  // Capture one evaded exchange as a pcapng for wireshark/tcpdump inspection.
  if (report.selected_technique && env->pre_middlebox_tap != nullptr) {
    env->pre_middlebox_tap->clear();
    core::RoundRequest evasion;
    evasion.trace = app;
    evasion.technique = *report.selected_technique;
    evasion.context = core::technique_context(c);
    if (!c.port_sensitive) evasion.server_port_override = 36000;
    (void)lib.runner().run(evasion);
    Bytes capture = trace::tap_to_pcapng(*env->pre_middlebox_tap);
    // Artifacts go under examples/out/ (gitignored), never the repo root.
    std::filesystem::create_directories("examples/out");
    std::string path = std::string("examples/out/liberate_") + argv[1] + "_" +
                       argv[2] + "_evasion.pcapng";
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(capture.data()),
              static_cast<std::streamsize>(capture.size()));
    std::printf("pcapng=%s packets=%zu\n", path.c_str(),
                env->pre_middlebox_tap->seen().size());
  }
  return 0;
}
