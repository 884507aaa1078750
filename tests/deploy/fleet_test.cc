// Fleet soak: thousands of live flows across sharded worlds under
// adversarial path faults, with a scripted classifier change mid-run — the
// control plane must detect the drift, re-characterize incrementally, and
// hot-swap every shard's shim, all byte-identically for any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "deploy/fleet.h"
#include "dpi/classifier.h"
#include "dpi/match_program.h"
#include "dpi/normalizer.h"
#include "dpi/profiles.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "trace/generators.h"

namespace liberate::deploy {
namespace {

FleetOptions soak_options() {
  FleetOptions opts;
  opts.shards = 8;
  opts.flows_per_wave = 16;
  opts.waves = 8;
  opts.faults = netsim::FaultPolicy::adversarial();
  opts.change_at_wave = 3;
  opts.classifier_change = [](dpi::Environment& env) {
    dpi::NormalizerConfig cfg;
    cfg.reassemble_fragments = true;
    env.net.emplace_at<dpi::NormalizerElement>(0, cfg);
  };
  return opts;
}

std::vector<std::pair<DeployState, DeployState>> edges(
    const FleetReport& report) {
  std::vector<std::pair<DeployState, DeployState>> out;
  for (const StateTransition& t : report.transitions) {
    out.emplace_back(t.from, t.to);
  }
  return out;
}

TEST(FleetSoak, AdversarialDriftTriggersIncrementalReadapt) {
  obs::reset_all();
  FleetOptions opts = soak_options();
  FleetEngine engine(opts);
  FleetReport report = engine.run(trace::amazon_video_trace(8 * 1024));

  // Scale: >= 1k flows actually ran, through a hostile path.
  EXPECT_EQ(report.totals.flows, 8u * 16u * 8u);
  EXPECT_GE(report.totals.flows, 1000u);
  EXPECT_GT(report.faults_injected, 0u);

  // The deployed technique worked until the countermeasure landed.
  EXPECT_FALSE(report.technique_initial.empty());
  EXPECT_GT(report.initial_analysis_rounds, 10);

  // Drift confirmed, exactly one re-adaptation, on the cheap path: the rule
  // set did not change, only fragment handling did, so the cached
  // fingerprint verifies and the ranking yields the next technique.
  EXPECT_EQ(report.readapts, 1u);
  bool saw_verified_cached = false;
  for (const FleetWaveReport& w : report.waves) {
    if (w.readapt_path) {
      EXPECT_EQ(*w.readapt_path, ReadaptPath::kVerifiedCached);
      saw_verified_cached = true;
    }
  }
  EXPECT_TRUE(saw_verified_cached);
  EXPECT_NE(report.technique_final, report.technique_initial);
  EXPECT_FALSE(report.technique_final.empty());

  // Acceptance criterion: incremental re-characterization at < 25% of the
  // full-analysis probe cost.
  EXPECT_LT(report.readapt_rounds * 4, report.initial_analysis_rounds);

  // Full state-machine walk, in order: deployed -> suspect -> re-verifying
  // -> re-deployed -> deployed (and nothing through re-analyzing).
  const auto got = edges(report);
  const std::vector<std::pair<DeployState, DeployState>> want = {
      {DeployState::kDeployed, DeployState::kSuspect},
      {DeployState::kSuspect, DeployState::kReVerifying},
      {DeployState::kReVerifying, DeployState::kReDeployed},
      {DeployState::kReDeployed, DeployState::kDeployed},
  };
  EXPECT_EQ(got, want);
  EXPECT_EQ(report.waves.back().state_after, DeployState::kDeployed);

#if LIBERATE_OBS_LEVEL >= 2
  // The adaptation story is in the flight recorder: event log...
  const auto events = obs::EventLog::instance().snapshot();
  auto total = [&](const std::string& key) {
    auto it = events.totals.find(key);
    return it == events.totals.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(total("deploy.state_transition"), 4u);
  EXPECT_EQ(total("deploy.readapt"), 1u);
  EXPECT_GT(total("deploy.wave_done"), 0u);

  // ...and the provenance ledger, under the synthetic control-plane flow.
  obs::prov::FlowKey control;
  control.ip_a = 0x0a000001;
  control.valid = true;
  const auto ledgers =
      obs::prov::ProvenanceRecorder::instance().ledgers_for(control);
  std::size_t transitions_recorded = 0;
  for (const auto& ledger : ledgers) {
    for (const auto& rec : ledger.records) {
      if (rec.kind == "deploy-transition") ++transitions_recorded;
    }
  }
  EXPECT_EQ(transitions_recorded, 4u);
#endif
}

TEST(FleetSoak, TransientFaultsNeverTriggerReadapt) {
  // Same hostile path, no classifier change: hysteresis and slack must keep
  // the fleet out of re-characterization entirely.
  FleetOptions opts = soak_options();
  opts.shards = 4;
  opts.waves = 6;
  opts.change_at_wave = static_cast<std::size_t>(-1);
  opts.classifier_change = nullptr;
  FleetEngine engine(opts);
  FleetReport report = engine.run(trace::amazon_video_trace(8 * 1024));

  EXPECT_EQ(report.readapts, 0u);
  EXPECT_EQ(report.technique_final, report.technique_initial);
  for (const StateTransition& t : report.transitions) {
    EXPECT_NE(t.to, DeployState::kReVerifying)
        << "fault noise escalated to verification probes";
  }
}

TEST(FleetSoak, WarmCacheSkipsInitialAnalysis) {
  ClassifierFingerprintCache cache;
  FleetOptions opts;
  opts.shards = 2;
  opts.flows_per_wave = 8;
  opts.waves = 2;
  opts.cache = &cache;

  FleetEngine cold(opts);
  FleetReport first = cold.run(trace::amazon_video_trace(8 * 1024));
  EXPECT_FALSE(first.initial_from_cache);
  EXPECT_GT(first.initial_analysis_rounds, 0);
  EXPECT_EQ(cache.size(), 1u);

  FleetEngine warm(opts);
  FleetReport second = warm.run(trace::amazon_video_trace(8 * 1024));
  EXPECT_TRUE(second.initial_from_cache);
  EXPECT_EQ(second.initial_analysis_rounds, 0);
  EXPECT_EQ(second.technique_initial, first.technique_initial);
  // The cached knowledge deploys just as well: clean waves throughout.
  EXPECT_EQ(second.totals.differentiated, 0u);
}

/// The fleet_deploy act-3 scenario: deployed on the testbed, the live
/// classifier is swapped mid-run to the nDPI-style engine behind a
/// reassembling normalizer — the rule set survives, but fragment handling
/// and the ambiguity resolutions change together.
FleetOptions fingerprint_swap_options(ClassifierFingerprintCache* cache,
                                      bool ambiguity_probes) {
  FleetOptions opts;
  opts.shards = 4;
  opts.flows_per_wave = 8;
  opts.waves = 6;
  opts.faults = netsim::FaultPolicy::reorder_heavy();
  opts.cache = cache;
  opts.ambiguity_probes = ambiguity_probes;
  opts.ambiguity_max_distance = 8;
  opts.change_at_wave = 2;
  opts.classifier_change = [](dpi::Environment& env) {
    dpi::NormalizerConfig cfg;
    cfg.reassemble_fragments = true;
    env.net.emplace_at<dpi::NormalizerElement>(0, cfg);
    env.dpi->engine().set_config(dpi::ambiguity_profile_config("ndpi"));
  };
  return opts;
}

int rounds_on_path(const FleetReport& report, ReadaptPath path) {
  for (const FleetWaveReport& w : report.waves) {
    if (w.readapt_path && *w.readapt_path == path) return w.readapt_rounds;
  }
  return -1;
}

// Acceptance criterion (docs/fingerprinting.md): a swap to a previously
// fingerprinted classifier re-deploys via the nearest-fingerprint warm match
// in FEWER replay rounds than the verified-cached ladder walk spends on the
// identical swap without probes.
TEST(FleetFingerprint, NearestMatchRedeploysInFewerRoundsThanVerifiedCached) {
  const auto trace = trace::amazon_video_trace(8 * 1024);

  // Baseline, probes off: drift falls through to field verification and the
  // stale ranking walk.
  ClassifierFingerprintCache cache_off;
  FleetReport off =
      FleetEngine(fingerprint_swap_options(&cache_off, false)).run(trace);
  const int verified = rounds_on_path(off, ReadaptPath::kVerifiedCached);
  ASSERT_GT(verified, 0);
  EXPECT_TRUE(off.fingerprint_source.empty());
  EXPECT_EQ(off.summary().find("FLEET fingerprint"), std::string::npos);

  // Learn the nDPI implementation's fingerprint once (cold deploy against
  // that profile with probes on stores digest + ranking in the cache).
  ClassifierFingerprintCache cache;
  FleetOptions learn = fingerprint_swap_options(&cache, true);
  learn.environment = "ndpi";
  learn.waves = 1;
  learn.change_at_wave = static_cast<std::size_t>(-1);
  learn.classifier_change = nullptr;
  FleetReport learned = FleetEngine(learn).run(trace);
  EXPECT_EQ(learned.fingerprint_source, "probed");
  EXPECT_FALSE(learned.fingerprint_digest.empty());
  EXPECT_EQ(learned.fingerprint_dims, 10u);
  ASSERT_NE(cache.lookup("ndpi", learned.app), nullptr);
  EXPECT_TRUE(cache.lookup("ndpi", learned.app)->ambiguity.has_value());

  // The same swap with probes on: the post-change digest nearest-matches
  // the learned nDPI entry at the fingerprint-verify ladder stage.
  FleetReport on =
      FleetEngine(fingerprint_swap_options(&cache, true)).run(trace);
  const int matched = rounds_on_path(on, ReadaptPath::kFingerprintMatched);
  ASSERT_GT(matched, 0);
  EXPECT_EQ(on.fingerprint_source, "nearest");
  EXPECT_EQ(on.fingerprint_profile, "ndpi");
  EXPECT_GT(on.fingerprint_probe_flows, 0u);
  EXPECT_NE(on.technique_final, on.technique_initial);
  EXPECT_NE(on.summary().find("FLEET fingerprint"), std::string::npos);

  EXPECT_LT(matched, verified);
}

TEST(FleetSoak, FlowTableCapEvictsAcrossWaves) {
  FleetOptions opts;
  opts.shards = 1;
  opts.flows_per_wave = 8;
  opts.waves = 8;
  opts.max_flows_per_shim = 8;
  FleetEngine engine(opts);
  FleetReport report = engine.run(trace::amazon_video_trace(4 * 1024));
  // 64 distinct flows through an 8-entry table: each wave's cohort evicts
  // the previous wave's, and the churn must not disturb treatment.
  EXPECT_EQ(report.flows_evicted, 64u - 8u);
  EXPECT_EQ(report.totals.differentiated, 0u);
  EXPECT_EQ(report.totals.incomplete, 0u);
}

TEST(FleetDeterminism, SummaryByteIdenticalAcrossWorkerCounts) {
  auto run_with = [](std::size_t workers) {
    FleetOptions opts = soak_options();
    opts.shards = 4;
    opts.flows_per_wave = 8;
    opts.waves = 6;
    opts.workers = workers;
    FleetEngine engine(opts);
    return engine.run(trace::amazon_video_trace(8 * 1024)).summary();
  };
  const std::string serial = run_with(0);
  EXPECT_NE(serial.find("FLEET transition"), std::string::npos);
  EXPECT_EQ(serial, run_with(2));
  EXPECT_EQ(serial, run_with(8));
}

// Fleet leg of the compiled-matcher equivalence contract: the summary is
// byte-identical across {reference, compiled} backends x {serial, 2, 8}
// workers — shards share compiled programs via the compile cache, and none
// of that sharing may leak into results.
TEST(FleetDeterminism, SummaryIdenticalAcrossMatchBackends) {
  struct BackendGuard {
    ~BackendGuard() { dpi::set_match_backend(dpi::MatchBackend::kCompiled); }
  } guard;
  auto run_with = [](std::size_t workers) {
    FleetOptions opts = soak_options();
    opts.shards = 4;
    opts.flows_per_wave = 8;
    opts.waves = 4;
    opts.workers = workers;
    FleetEngine engine(opts);
    return engine.run(trace::amazon_video_trace(8 * 1024)).summary();
  };
  dpi::set_match_backend(dpi::MatchBackend::kReference);
  const std::string reference = run_with(0);
  EXPECT_NE(reference.find("FLEET transition"), std::string::npos);
  EXPECT_EQ(reference, run_with(2));
  EXPECT_EQ(reference, run_with(8));
  dpi::set_match_backend(dpi::MatchBackend::kCompiled);
  EXPECT_EQ(reference, run_with(0));
  EXPECT_EQ(reference, run_with(2));
  EXPECT_EQ(reference, run_with(8));
}

// The merge contract: snapshot-delta merging reconstructs the FleetReport
// (summary and telemetry) byte-identically to the serial compiled-backend
// run at any worker count and either match backend — and actually ships
// fewer counter entries than dense publishes would. That sparse and dense
// publishes reconstruct the same stats at the merger is pinned by
// FleetDelta.SparseStreamReconstructsWaveStatsExactly.
TEST(FleetDeterminism, DeltaMergeIdenticalToFullMergeBaseline) {
  struct BackendGuard {
    ~BackendGuard() { dpi::set_match_backend(dpi::MatchBackend::kCompiled); }
  } guard;
  struct Run {
    std::string summary;
    std::string telemetry;
    std::uint64_t shipped = 0;
    std::uint64_t full = 0;
  };
  auto run_with = [](std::size_t workers) {
    obs::reset_all();
    // reset_all covers counters/events but not the telemetry hub's series
    // store; stale points would leak into telemetry_json across runs.
    obs::TimeSeriesStore::instance().reset();
    FleetOptions opts = soak_options();
    opts.shards = 4;
    opts.flows_per_wave = 8;
    opts.waves = 4;
    opts.workers = workers;
    FleetEngine engine(opts);
    FleetReport report = engine.run(trace::amazon_video_trace(8 * 1024));
    return Run{report.summary(), report.telemetry_json,
               report.delta_entries_shipped, report.delta_entries_full};
  };

  dpi::set_match_backend(dpi::MatchBackend::kCompiled);
  const Run baseline = run_with(0);
  EXPECT_NE(baseline.summary.find("FLEET transition"), std::string::npos);

  for (auto backend :
       {dpi::MatchBackend::kReference, dpi::MatchBackend::kCompiled}) {
    dpi::set_match_backend(backend);
    for (std::size_t workers : {std::size_t{0}, std::size_t{2},
                                std::size_t{8}}) {
      const Run delta = run_with(workers);
      EXPECT_EQ(delta.summary, baseline.summary);
      EXPECT_EQ(delta.telemetry, baseline.telemetry);
      // The sparse encoding must actually compress the stream.
      EXPECT_LT(delta.shipped, delta.full);
    }
  }
}

// Packet-level flow mode: crafted SYN/payload/RST flows through the shim
// scale the same control plane to fleet-sized waves, deterministically at
// any worker count.
TEST(FleetPacketLevel, CraftedFlowsCompleteAndMergeDeterministically) {
  auto run_with = [](std::size_t workers) {
    obs::reset_all();
    obs::TimeSeriesStore::instance().reset();
    FleetOptions opts;
    opts.shards = 4;
    opts.flows_per_wave = 256;
    opts.waves = 3;
    opts.workers = workers;
    opts.flow_mode = FlowMode::kPacketLevel;
    opts.max_flows_per_shim = 1 << 14;
    FleetEngine engine(opts);
    return engine.run(trace::amazon_video_trace(4 * 1024));
  };
  const FleetReport report = run_with(0);
  // Exact fleet totals despite shard-affine (uneven per-shard) admission.
  EXPECT_EQ(report.totals.flows, 4u * 256u * 3u);
  // The deployed technique evades: no differentiation, and the crafted
  // uploads complete (checksum-valid in-window bytes all arrived).
  EXPECT_EQ(report.totals.differentiated, 0u);
  EXPECT_EQ(report.totals.incomplete, 0u);
  EXPECT_GT(report.totals.latency_samples, 0u);
  // Byte-identical merge at any worker count, like the full-stack path.
  EXPECT_EQ(report.summary(), run_with(2).summary());
  EXPECT_EQ(report.summary(), run_with(8).summary());
}

// A shard world lives for the whole session, so neither its pre-DPI tap
// nor its DPI classification log (both unread by the fleet) may keep every
// datagram or verdict the session produced: after run() each holds only the
// last wave's, in both flow modes.
TEST(FleetTap, ShardTapsHoldOnlyTheLastWave) {
  for (FlowMode mode : {FlowMode::kPacketLevel, FlowMode::kFullStack}) {
    obs::reset_all();
    constexpr std::size_t kShards = 2;
    constexpr std::size_t kWaves = 3;
    FleetOptions opts;
    opts.shards = kShards;
    opts.flows_per_wave = 8;
    opts.waves = kWaves;
    opts.flow_mode = mode;
    // The classifier-change hook sees every shard's world (then the probe
    // world). A normalizer at wave 1 defeats the deployed technique, so
    // that earlier wave classifies flows.
    std::vector<dpi::Environment*> envs;
    opts.change_at_wave = 1;
    opts.classifier_change = [&](dpi::Environment& env) {
      envs.push_back(&env);
      dpi::NormalizerConfig cfg;
      cfg.reassemble_fragments = true;
      env.net.emplace_at<dpi::NormalizerElement>(0, cfg);
    };
    // Shard loops are idle between waves: their clocks at the end of the
    // second-to-last wave are where the last wave starts.
    std::vector<netsim::TimePoint> last_wave_start;
    std::size_t logged_before_last_wave = 0;
    opts.on_wave = [&](const FleetWaveReport& w) {
      if (w.wave + 2 != kWaves) return;
      for (std::size_t i = 0; i < kShards; ++i) {
        last_wave_start.push_back(envs[i]->loop.now());
        logged_before_last_wave += envs[i]->dpi->engine().log().size();
      }
    };
    FleetEngine engine(opts);
    engine.run(trace::amazon_video_trace(2 * 1024));

    ASSERT_EQ(envs.size(), kShards + 1);
    ASSERT_EQ(last_wave_start.size(), kShards);
    EXPECT_GT(logged_before_last_wave, 0u) << "no earlier wave classified";
    for (std::size_t i = 0; i < kShards; ++i) {
      const netsim::TapElement* tap = envs[i]->pre_middlebox_tap;
      ASSERT_NE(tap, nullptr);
      EXPECT_FALSE(tap->seen().empty()) << "shard " << i;
      for (const netsim::TapElement::Seen& s : tap->seen()) {
        ASSERT_GE(s.at, last_wave_start[i])
            << "shard " << i << " still holds an earlier wave's datagram";
      }
      for (const dpi::ClassificationEvent& ev :
           envs[i]->dpi->engine().log()) {
        ASSERT_GE(ev.at, last_wave_start[i])
            << "shard " << i << " still logs an earlier wave's verdict";
      }
    }
  }
}

// Shard worlds record provenance for 1 flow in kShardProvenanceSampleEvery,
// decided from header bytes: the same flows get the same ledgers at any
// worker count, and each is a sampled flow carrying its DPI decisions.
TEST(FleetProvenance, ShardLedgersAreSampledAndWorkerCountIndependent) {
#if LIBERATE_OBS_LEVEL < 2
  GTEST_SKIP() << "provenance compiled out below obs level 2";
#else
  constexpr std::size_t kFlows = 4 * 256 * 3;
  auto shard_ledgers = [](std::size_t workers) {
    obs::reset_all();
    obs::TimeSeriesStore::instance().reset();
    FleetOptions opts;
    opts.shards = 4;
    opts.flows_per_wave = 256;
    opts.waves = 3;
    opts.workers = workers;
    opts.flow_mode = FlowMode::kPacketLevel;
    FleetEngine engine(opts);
    engine.run(trace::amazon_video_trace(4 * 1024));
    // Scope 0 holds the control plane and the deploy-time analysis, which
    // record every flow; shard worlds record under their own scopes.
    std::vector<obs::prov::LedgerSnapshot> out;
    obs::prov::ProvSnapshot snap =
        obs::prov::ProvenanceRecorder::instance().snapshot();
    for (auto& l : snap.ledgers) {
      if (l.scope != 0) out.push_back(std::move(l));
    }
    return out;
  };
  auto render = [](const std::vector<obs::prov::LedgerSnapshot>& ledgers) {
    std::string out;
    for (const auto& l : ledgers) {
      out += std::to_string(l.scope) + " " + l.flow.to_string() + "\n";
      for (const auto& r : l.records) {
        out += "  " + std::to_string(r.ts_us) + " " + r.kind + " " +
               obs::prov::id_hex(r.pkt);
        for (const auto& f : r.fields) out += " " + f.key + "=" + f.value;
        out += "\n";
      }
    }
    return out;
  };

  const auto ledgers = shard_ledgers(0);
  ASSERT_FALSE(ledgers.empty());
  EXPECT_LT(ledgers.size(), kFlows / 16);  // sampled, not everything
  const std::set<std::string> dpi_kinds = {"rules-evaluated", "dpi-skip",
                                           "dpi-gave-up",     "dpi-flush",
                                           "verdict",         "policy-drop"};
  std::set<std::uint64_t> scopes;
  for (const auto& l : ledgers) {
    scopes.insert(l.scope);
    {
      obs::prov::ScopedProvScope scope(l.scope, kShardProvenanceSampleEvery);
      EXPECT_TRUE(obs::prov::ProvenanceRecorder::sampled(l.flow))
          << l.flow.to_string();
    }
    const bool has_dpi = std::any_of(
        l.records.begin(), l.records.end(),
        [&](const auto& r) { return dpi_kinds.count(r.kind) != 0; });
    EXPECT_TRUE(has_dpi) << l.flow.to_string();
  }
  EXPECT_EQ(scopes.size(), 4u);  // every shard sampled some of its flows

  const std::string reference = render(ledgers);
  EXPECT_EQ(reference, render(shard_ledgers(2)));
  EXPECT_EQ(reference, render(shard_ledgers(8)));
#endif
}

// Degenerate inputs must surface as zero rates, never NaN: zero-flow
// shard-waves (shard-affine admission legitimately assigns a shard nothing),
// zero waves, and zero flows per wave.
TEST(FleetRates, DegenerateInputsProduceZeroRatesNotNan) {
  {
    // flows_per_wave=1 over 8 shards: most shards admit zero flows each
    // wave. Their per-shard stats must read as 0.0 rates.
    obs::reset_all();
    obs::TimeSeriesStore::instance().reset();
    FleetOptions opts;
    opts.shards = 8;
    opts.flows_per_wave = 1;
    opts.waves = 2;
    std::size_t zero_flow_shard_waves = 0;
    opts.on_wave = [&](const FleetWaveReport& w) {
      for (const WaveStats& s : w.shard_stats) {
        if (s.flows != 0) continue;
        ++zero_flow_shard_waves;
        EXPECT_EQ(s.differentiated_rate(), 0.0);
        EXPECT_EQ(s.blocked_rate(), 0.0);
        EXPECT_EQ(s.incomplete_rate(), 0.0);
        EXPECT_EQ(s.mean_latency_us(), 0.0);
      }
    };
    FleetEngine engine(opts);
    FleetReport report = engine.run(trace::amazon_video_trace(2 * 1024));
    EXPECT_EQ(report.totals.flows, 8u * 1u * 2u);
    EXPECT_GT(zero_flow_shard_waves, 0u);
    EXPECT_EQ(report.summary().find("nan"), std::string::npos);
    EXPECT_EQ(report.telemetry_json.find("nan"), std::string::npos);
  }
  {
    // waves == 0: a deploy with no traffic at all.
    obs::reset_all();
    obs::TimeSeriesStore::instance().reset();
    FleetOptions opts;
    opts.shards = 2;
    opts.waves = 0;
    FleetEngine engine(opts);
    FleetReport report = engine.run(trace::amazon_video_trace(2 * 1024));
    EXPECT_EQ(report.totals.flows, 0u);
    EXPECT_EQ(report.totals.differentiated_rate(), 0.0);
    EXPECT_EQ(report.totals.mean_latency_us(), 0.0);
    EXPECT_EQ(report.summary().find("nan"), std::string::npos);
    EXPECT_EQ(report.telemetry_json.find("nan"), std::string::npos);
  }
  {
    // flows_per_wave == 0: waves run, every shard admits nothing.
    obs::reset_all();
    obs::TimeSeriesStore::instance().reset();
    FleetOptions opts;
    opts.shards = 2;
    opts.flows_per_wave = 0;
    opts.waves = 2;
    FleetEngine engine(opts);
    FleetReport report = engine.run(trace::amazon_video_trace(2 * 1024));
    EXPECT_EQ(report.totals.flows, 0u);
    for (const FleetWaveReport& w : report.waves) {
      EXPECT_EQ(w.stats.differentiated_rate(), 0.0);
      EXPECT_EQ(w.stats.blocked_rate(), 0.0);
      EXPECT_EQ(w.stats.incomplete_rate(), 0.0);
    }
    EXPECT_EQ(report.summary().find("nan"), std::string::npos);
    EXPECT_EQ(report.telemetry_json.find("nan"), std::string::npos);
  }
}

}  // namespace
}  // namespace liberate::deploy
