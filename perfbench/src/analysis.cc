// analysis.cc — the analysis workload over the four §5.3 networks
// (testbed/Amazon, tmus/Amazon video, gfc/Economist, iran/Facebook).
//
// A pass runs one cold analyze_parallel per network, each on a fresh
// pool-wide RoundScheduler seeded per pass, so no probe-cache hit crosses
// passes. It then applies one scripted countermeasure per network to a fresh
// world and re-adapts with incremental_readapt on a Liberate facade with a
// fingerprint cache and probe_ambiguity hooks. The countermeasures are chosen
// so every pass takes the fingerprint-matched, verified-cached, full-analysis
// and still-working exits once each.
#include <functional>

#include "core/parallel_analysis.h"
#include "deploy/recharacterize.h"
#include "dpi/normalizer.h"
#include "fingerprint/probe.h"
#include "trace/generators.h"
#include "workloads.h"

namespace perfbench {

using namespace liberate;

namespace {

constexpr std::size_t kSetupReps = 9;

trace::ApplicationTrace web_trace(const char* app, const char* host,
                                  const char* path, std::uint64_t seed) {
  trace::HttpTraceOptions o;
  o.host = host;
  o.path = path;
  o.user_agent = "Mozilla/5.0";
  o.content_type = "text/html";
  o.response_body_bytes = 3 * 1024;
  o.seed = seed;
  return trace::make_http_trace(app, o);
}

std::string report_digest(const core::SessionReport& r) {
  const Fingerprint fp = deploy::characterization_digest(r.characterization);
  return r.selected_technique.value_or("(none)") + "/" +
         std::to_string(r.total_rounds) + "/" + std::to_string(r.total_bytes) +
         "/" + std::to_string(fp.lo) + "/" + std::to_string(fp.hi);
}

// --- readapt countermeasures -------------------------------------------

void reassembling_ndpi(dpi::Environment& env) {
  // The classifier is swapped for the nDPI-style engine behind a
  // fragment-reassembling normalizer: a known implementation.
  dpi::NormalizerConfig cfg;
  cfg.reassemble_fragments = true;
  env.net.emplace_at<dpi::NormalizerElement>(0, cfg);
  env.dpi->engine().set_config(dpi::ambiguity_profile_config("ndpi"));
}

void keep_state_on_rst(dpi::Environment& env) {
  // RSTs no longer flush classifier state: RST-flush evasion dies, the
  // rules (and so the cached fields) stay.
  dpi::ClassifierConfig cfg = env.dpi->engine().config();
  cfg.flush_flow_on_rst = false;
  env.dpi->engine().set_config(cfg);
}

void rekey_rule(dpi::Environment& env, const char* rule,
                std::vector<std::string> keywords) {
  auto rules = env.dpi->engine().rules();
  for (auto& r : rules) {
    if (r.name == rule) r.keywords = keywords;
  }
  env.dpi->engine().set_rules(rules);
}

struct Countermeasure {
  const char* expected_exit;
  std::function<void(dpi::Environment&)> apply;
};

/// One countermeasure per network, in paper_networks() order.
std::vector<Countermeasure> countermeasures() {
  return {
      {"fingerprint-matched", reassembling_ndpi},
      {"verified-cached", keep_state_on_rst},
      {"full-analysis",
       [](dpi::Environment& env) {
         // The rule moves to another request field and RST flushing stops:
         // the cached fields no longer verify.
         keep_state_on_rst(env);
         rekey_rule(env, "gfc-economist", {"GET", "/news/china"});
       }},
      {"still-working",
       [](dpi::Environment& env) {
         // The rule moves to the request path; the deployed segment
         // reordering still hides it.
         rekey_rule(env, "iran-facebook", {"GET", "/home.php"});
       }},
  };
}

/// What the readapt passes start from: each network's cached
/// characterization, plus the known implementation the fingerprint stage
/// can match.
struct ReadaptBase {
  std::vector<Network> networks;
  std::vector<deploy::CachedCharacterization> cached;
  deploy::ClassifierFingerprintCache cache;
};

fingerprint::EnvFactory countered_factory(
    const std::string& environment,
    const std::function<void(dpi::Environment&)>& countermeasure) {
  return [environment, countermeasure](std::uint64_t seed) {
    auto env = dpi::make_environment(environment, seed);
    countermeasure(*env);
    return env;
  };
}

ReadaptBase readapt_base(std::uint64_t seed, Tracer& tracer) {
  ReadaptBase base;
  base.networks = paper_networks(derive_seed(seed, 10));
  Tracer quiet(false);
  for (std::size_t k = 0; k < base.networks.size(); ++k) {
    const Network& n = base.networks[k];
    core::SessionReport report = cold_analysis(
        n, derive_seed(seed, 11, k), pool_width(), quiet, 0, nullptr);
    base.cached.push_back(deploy::make_cached_characterization(
        n.environment, n.trace.app_name, report));
    base.cache.store(base.cached.back());
  }
  // The known implementation: the fingerprint stage matches the testbed
  // countermeasure's world exactly (distance 0) against this entry.
  Scope span(tracer, "setup.learn_known_implementation", 0);
  const Countermeasure known = countermeasures()[0];
  const Network& testbed = base.networks[0];
  auto world = countered_factory("testbed", known.apply)(derive_seed(seed, 12));
  core::Liberate lib(*world, derive_seed(seed, 12));
  deploy::CachedCharacterization entry = deploy::make_cached_characterization(
      "testbed+ndpi-normalizer", testbed.trace.app_name,
      lib.analyze(testbed.trace));
  fingerprint::AmbiguityProbeOptions popts;
  popts.workers = pool_width();
  popts.seed = derive_seed(seed, 13);
  entry.ambiguity =
      fingerprint::probe_ambiguity(countered_factory("testbed", known.apply),
                                   popts)
          .digest;
  base.cache.store(std::move(entry));
  return base;
}

struct ReadaptPass {
  double wall_ms = 0;
  std::vector<double> network_ms;
  bool exits_as_expected = true;
  bool all_working = true;
  std::uint64_t rounds = 0;
  std::uint64_t probes = 0;
  double probe_ms = 0;
  std::uint64_t probe_flows = 0;
  std::map<std::string, std::uint64_t> exits;
};

ReadaptPass readapt_pass(const ReadaptBase& base, std::uint64_t pass_seed,
                         Tracer& tracer, std::uint64_t op) {
  ReadaptPass out;
  const std::vector<Countermeasure> cms = countermeasures();
  Scope pass_span(tracer, "readapt.pass", op);
  for (std::size_t k = 0; k < base.networks.size(); ++k) {
    const Network& n = base.networks[k];
    const std::uint64_t world_seed = derive_seed(pass_seed, k);
    auto env = dpi::make_environment(n.environment, world_seed);
    deploy::ClassifierFingerprintCache cache = base.cache;
    deploy::ReadaptHooks hooks;
    hooks.max_distance = 0;
    const fingerprint::EnvFactory factory =
        countered_factory(n.environment, cms[k].apply);
    hooks.probe_ambiguity = [&] {
      Scope span(tracer, "fingerprint.probe", op);
      fingerprint::AmbiguityProbeOptions popts;  // one worker: no pool
      popts.seed = world_seed;
      const Clock::time_point t = Clock::now();
      fingerprint::AmbiguityProbeResult r =
          fingerprint::probe_ambiguity(factory, popts);
      out.probe_ms += ms_between(t, Clock::now());
      out.probes += 1;
      out.probe_flows += r.probe_flows;
      return r;
    };

    const Clock::time_point t0 = Clock::now();
    deploy::ReadaptOutcome outcome;
    {
      Scope span(tracer, "deploy.readapt", op);
      cms[k].apply(*env);
      core::Liberate lib(*env, world_seed);
      outcome = deploy::incremental_readapt(lib, n.trace, base.cached[k],
                                            &cache, &hooks);
    }
    out.network_ms.push_back(ms_between(t0, Clock::now()));
    out.wall_ms += out.network_ms.back();
    const std::string exit = deploy::readapt_path_name(outcome.path);
    out.exits[exit] += 1;
    out.rounds += static_cast<std::uint64_t>(outcome.report.total_rounds);
    out.exits_as_expected =
        out.exits_as_expected && exit == cms[k].expected_exit;
    out.all_working = out.all_working && !outcome.technique.empty();
  }
  return out;
}

}  // namespace

trace::ApplicationTrace amazon_trace(std::size_t body_bytes,
                                     std::uint64_t seed) {
  trace::HttpTraceOptions o;
  o.host = "d25xi40x97liuc.cloudfront.net";
  o.path = "/video/segment-1.mp4";
  o.user_agent = "AmazonVideo/5.0 (Linux)";
  o.content_type = "video/mp4";
  o.response_body_bytes = body_bytes;
  o.seed = seed;
  return trace::make_http_trace("AmazonPrimeVideo", o);
}

std::vector<Network> paper_networks(std::uint64_t seed) {
  // Small traces keep a pass to tens of milliseconds. The tmus trace is
  // 64 KB because T-Mobile's laggy zero-rating signal misses about a third
  // of 32 KB downloads; at 64 KB it was detected on every seed tried.
  return {
      {"testbed", amazon_trace(8 * 1024, derive_seed(seed, 0))},
      {"tmus", amazon_trace(64 * 1024, derive_seed(seed, 1))},
      {"gfc", web_trace("EconomistWeb", "www.economist.com",
                        "/news/china/index.html", derive_seed(seed, 2))},
      {"iran", web_trace("FacebookWeb", "www.facebook.com", "/home.php",
                         derive_seed(seed, 3))},
  };
}

AnalysisCost& AnalysisCost::operator+=(const AnalysisCost& o) {
  detect_ms += o.detect_ms;
  characterize_ms += o.characterize_ms;
  evaluate_ms += o.evaluate_ms;
  wall_ms += o.wall_ms;
  cpu_s += o.cpu_s;
  rounds_submitted += o.rounds_submitted;
  rounds_from_cache += o.rounds_from_cache;
  return *this;
}

core::SessionReport cold_analysis(const Network& network,
                                  std::uint64_t world_seed, std::size_t workers,
                                  Tracer& tracer, std::uint64_t op,
                                  AnalysisCost* cost) {
  core::WorldSpec spec;
  spec.environment = network.environment;
  spec.seed = world_seed;
  core::RoundScheduler scheduler(spec, {.workers = workers});
  const Usage u0 = Usage::now();
  const Clock::time_point t0 = Clock::now();
  core::SessionReport report;
  AnalysisCost c;
  if (!tracer.enabled()) {
    report = core::analyze_parallel(scheduler, network.trace);
  } else {
    Scope span(tracer, "core.analyze", op);
    Clock::time_point t = Clock::now();
    {
      Scope phase(tracer, "core.detect", op);
      report.detection =
          core::detect_differentiation_parallel(scheduler, network.trace);
    }
    c.detect_ms = ms_between(t, Clock::now());
    if (report.detection.content_based) {
      report.ran_characterization = true;
      core::CharacterizationOptions copts;
      copts.unique_port_per_round = true;
      t = Clock::now();
      {
        Scope phase(tracer, "core.characterize", op);
        report.characterization = core::characterize_classifier_parallel(
            scheduler, network.trace, copts);
      }
      c.characterize_ms = ms_between(t, Clock::now());
      t = Clock::now();
      {
        Scope phase(tracer, "core.evaluate", op);
        report.evaluation = core::evaluate_parallel(
            scheduler, report.characterization, network.trace, false);
      }
      c.evaluate_ms = ms_between(t, Clock::now());
      report.selected_technique = report.evaluation.selected;
    }
    report.total_rounds = report.detection.rounds +
                          report.characterization.replay_rounds +
                          report.evaluation.replay_rounds;
  }
  c.wall_ms = ms_between(t0, Clock::now());
  c.cpu_s = (Usage::now() - u0).cpu_s();
  c.rounds_submitted = scheduler.rounds_submitted();
  c.rounds_from_cache = scheduler.rounds_from_cache();
  if (cost != nullptr) *cost += c;
  return report;
}

void readapt_exit_metrics(const std::map<std::string, std::uint64_t>& exits,
                          std::uint64_t readapts, Result& result) {
  for (const char* path : {"still-working", "policy-gone",
                           "fingerprint-matched", "verified-cached",
                           "full-analysis"}) {
    const auto it = exits.find(path);
    const double n = it == exits.end() ? 0.0 : static_cast<double>(it->second);
    result.metric(std::string("deploy.readapt_exit.") + path,
                  readapts == 0 ? 0.0 : n / static_cast<double>(readapts));
  }
}

namespace {

/// One pass: a cold analysis of every network, then a countermeasure and
/// incremental_readapt per network.
struct Pass {
  AnalysisCost cost;
  std::vector<core::SessionReport> reports;
  bool selected_all = true;
  ReadaptPass readapt;

  double wall_ms() const { return cost.wall_ms + readapt.wall_ms; }
  bool ok() const { return selected_all && readapt.all_working; }
};

Pass run_pass(const ReadaptBase& base, std::uint64_t pass_seed,
              std::size_t workers, Tracer& tracer, std::uint64_t op) {
  Pass p;
  Scope span(tracer, "analysis.pass", op);
  for (std::size_t k = 0; k < base.networks.size(); ++k) {
    p.reports.push_back(cold_analysis(base.networks[k],
                                      derive_seed(pass_seed, 0, k), workers,
                                      tracer, op, &p.cost));
    p.selected_all =
        p.selected_all && p.reports.back().selected_technique.has_value();
  }
  p.readapt = readapt_pass(base, derive_seed(pass_seed, 1), tracer, op);
  return p;
}

}  // namespace

void run_analysis(const Options& options, Tracer& tracer, Result& result) {
  const std::size_t workers = pool_width();
  result.context["pool_width"] = std::to_string(workers);

  // The pool-wide scheduler must reproduce the serial one exactly.
  {
    const Network gfc = paper_networks(derive_seed(options.seed, 20))[2];
    Tracer quiet(false);
    const std::uint64_t s = derive_seed(options.seed, 21);
    result.check("analysis_identical_pool_vs_serial",
                 report_digest(cold_analysis(gfc, s, workers, quiet, 0,
                                             nullptr)) ==
                     report_digest(cold_analysis(gfc, s, 0, quiet, 0,
                                                 nullptr)));
  }

  // Set-up: traces, the four cold analyses the readapt cache is built from,
  // the known implementation's entry, and one warm-up pass.
  std::vector<double> setup_s;
  ReadaptBase base;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    Scope span(tracer, "setup", rep);
    const Clock::time_point t0 = Clock::now();
    base = readapt_base(options.seed, tracer);
    run_pass(base, derive_seed(options.seed, 22, rep), workers, tracer, rep);
    setup_s.push_back(seconds_since(t0));
  }

  Tracer untraced(false);
  std::vector<double> pass_ms, pass_cpu_ms, analyze_ms, readapt_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> detect_ms, characterize_ms, evaluate_ms;
  std::vector<std::vector<double>> network_readapt_ms(base.networks.size());
  AnalysisCost traced_cost;
  std::vector<core::SessionReport> reports;
  std::uint64_t passes = 0, failed = 0, rounds = 0, traced_passes = 0;
  std::uint64_t readapt_rounds = 0, readapts = 0, probes = 0, probe_flows = 0;
  double probe_ms = 0;
  std::map<std::string, std::uint64_t> exits;
  bool exits_as_expected = true;
  Usage measured;
  // Traced runs alternate untraced and traced passes; the difference in pass
  // time between the two is the tracing overhead.
  CpuRotation rotation(false);  // passes start thread pools
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < options.seconds) {
    rotation.step();
    const bool traced = options.trace && passes % 2 == 1;
    const Usage u0 = Usage::now();
    Pass p = run_pass(base, derive_seed(options.seed, 23, passes), workers,
                      traced ? tracer : untraced, 1000 + passes);
    const Usage used = Usage::now() - u0;
    measured += used;
    pass_ms.push_back(p.wall_ms());
    pass_cpu_ms.push_back(used.cpu_s() * 1e3);
    analyze_ms.push_back(p.cost.wall_ms);
    readapt_ms.push_back(p.readapt.wall_ms);
    (traced ? traced_ms : untraced_ms).push_back(p.wall_ms());
    for (std::size_t k = 0; k < p.readapt.network_ms.size(); ++k) {
      network_readapt_ms[k].push_back(p.readapt.network_ms[k]);
    }
    rounds += p.cost.rounds_submitted - p.cost.rounds_from_cache;
    readapt_rounds += p.readapt.rounds;
    readapts += base.networks.size();
    probes += p.readapt.probes;
    probe_flows += p.readapt.probe_flows;
    probe_ms += p.readapt.probe_ms;
    for (const auto& [exit, n] : p.readapt.exits) exits[exit] += n;
    exits_as_expected = exits_as_expected && p.readapt.exits_as_expected;
    if (traced) {
      detect_ms.push_back(p.cost.detect_ms);
      characterize_ms.push_back(p.cost.characterize_ms);
      evaluate_ms.push_back(p.cost.evaluate_ms);
      traced_cost += p.cost;
      traced_passes += 1;
    }
    if (!p.ok()) failed += 1;
    reports = std::move(p.reports);
    passes += 1;
  }
  result.check("every_pass_selects_and_readapts_to_a_technique", failed == 0);
  result.check("each_pass_takes_every_readapt_exit", exits_as_expected);

  result.attempted = passes;
  result.failed = failed;
  const double pass_ms_cost = batch_cost(pass_ms, false);
  result.metric("setup_s", median(setup_s));
  result.metric("ops_per_s", 1e3 / pass_ms_cost);
  result.metric("batch_ms", pass_ms_cost);
  result.metric("batch_ms_p90", quantile(pass_ms, 0.9));
  result.metric("cpu_ms_per_op", batch_cost(pass_cpu_ms, false));
  result.metric("analysis.analyze_ms_p50", quantile(analyze_ms, 0.5));
  result.metric("analysis.analyze_ms_p90", quantile(analyze_ms, 0.9));
  result.metric("analysis.readapt_ms_p50", quantile(readapt_ms, 0.5));
  result.metric("analysis.readapt_ms_p90", quantile(readapt_ms, 0.9));
  result.metric("analysis.rounds_per_s",
                static_cast<double>(rounds) / (sum(analyze_ms) / 1e3));
  result.metric("analysis.passes", static_cast<double>(passes));
  for (std::size_t k = 0; k < base.networks.size(); ++k) {
    result.metric("analysis.readapt_" + base.networks[k].environment +
                      "_ms_p50",
                  median(network_readapt_ms[k]));
  }

  if (!options.trace) return;
  result.metric("obs.tracing_overhead_pct",
                (mean(traced_ms) / mean(untraced_ms) - 1.0) * 100.0);
  result.metric("obs.vcsw_per_kflow",
                measured.vcsw / (static_cast<double>(rounds) / 1e3));
  result.metric("obs.sys_cpu_share", measured.sys_s / measured.cpu_s());
  result.metric("core.detect_ms", median(detect_ms));
  result.metric("core.characterize_ms", median(characterize_ms));
  result.metric("core.evaluate_ms", median(evaluate_ms));
  result.metric("core.rounds_per_pass",
                static_cast<double>(traced_cost.rounds_submitted) /
                    static_cast<double>(traced_passes));
  result.metric("core.cache_hit_ratio",
                static_cast<double>(traced_cost.rounds_from_cache) /
                    static_cast<double>(traced_cost.rounds_submitted));
  result.metric("core.parallel_efficiency",
                traced_cost.cpu_s / (traced_cost.wall_ms / 1e3 *
                                     static_cast<double>(workers)));
  result.metric("deploy.readapt_ms", median(readapt_ms));
  result.metric("deploy.readapt_rounds", static_cast<double>(readapt_rounds) /
                                             static_cast<double>(readapts));
  readapt_exit_metrics(exits, readapts, result);
  result.metric("fingerprint.probe_ms",
                probes == 0 ? 0.0 : probe_ms / static_cast<double>(probes));
  result.metric("fingerprint.probe_flows",
                probes == 0 ? 0.0
                            : static_cast<double>(probe_flows) /
                                  static_cast<double>(probes));
  // No fleet on this workload.
  result.metric("deploy.shard_wave_ms", 0);
  result.metric("deploy.delta_entries_per_wave", 0);
  round_layers(base.networks, reports, derive_seed(options.seed, 30), tracer,
               result);
  round_datagram_layers(base.networks, reports, derive_seed(options.seed, 31),
                        tracer, result);
}

}  // namespace perfbench
