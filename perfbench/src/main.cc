// liberate_perfbench — one workload per process (so the process's peak RSS
// is the workload's own).
//
//   liberate_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --result <file.json> [--spans <file>]
//
// Workloads: fleet-soak, fleet-churn, analysis. The result
// document holds every metric the run measured, the output checks and the
// run context; perfbench/run.py turns it into the benchmark's one-line
// result. Exit status is 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/level.h"
#include "workloads.h"

namespace {

bool parse(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      o->workload = v;
    } else if (key == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      o->trace = std::strcmp(v, "1") == 0;
    } else if (key == "--result") {
      o->result_path = v;
    } else if (key == "--spans") {
      o->spans_path = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && !o->result_path.empty() && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload fleet-soak|fleet-churn|analysis"
                 " --seed N --seconds S --trace 0|1 --result FILE"
                 " [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Result result;
  result.context["workload"] = options.workload;
  result.context["seed"] = std::to_string(options.seed);
  result.context["seconds"] = std::to_string(options.seconds);
  result.context["trace"] = options.trace ? "1" : "0";
  result.context["obs_level"] = std::to_string(LIBERATE_OBS_LEVEL);
  result.context["build_type"] = PERFBENCH_BUILD_TYPE;
  result.context["compiler"] = PERFBENCH_COMPILER;
  result.context["nproc"] = std::to_string(perfbench::pool_width());

  perfbench::Tracer tracer(options.trace);
  if (options.workload == "fleet-soak" || options.workload == "fleet-churn") {
    perfbench::run_fleet(options, tracer, result);
  } else if (options.workload == "analysis") {
    perfbench::run_analysis(options, tracer, result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  result.metric("peak_rss_mb", perfbench::Usage::now().maxrss_mb);

  if (options.trace) {
    for (const auto& [name, t] : tracer.totals()) {
      result.metric("span." + name + ".self_ms", t.self_ms);
      result.metric("span." + name + ".count", static_cast<double>(t.count));
    }
    if (!options.spans_path.empty() && !tracer.write(options.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.spans_path.c_str());
    }
  }

  std::FILE* f = std::fopen(options.result_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options.result_path.c_str());
    return 2;
  }
  const std::string doc = result.to_json();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return result.correct() ? 0 : 1;
}
