// recharacterize.h — incremental re-characterization on drift (§4.2 grown
// up: "lib·erate must run the characterization step whenever an
// application's classification rule changes" — but a fleet cannot afford
// the full §5.3 analysis every time a monitor twitches).
//
// The cheap path is a verification pyramid, each level one or a few probe
// rounds, falling through to the next only on failure:
//
//   1. deployed technique still evades?        -> kStillWorking   (1 round)
//   2. plain replay still differentiated?      -> kPolicyGone     (1 round)
//   3. ambiguity fingerprint matches a known implementation? (probe the
//      discrepancy catalog in isolated worlds — costs probe *flows*, not
//      replay rounds — then try that implementation's best technique)
//                                              -> kFingerprintMatched (~1 round)
//   4. cached matching fields still necessary? (one targeted blinding probe
//      per field: blind it, expect classification to disappear)
//   5. fingerprint held: walk the cached technique ranking cheapest-first,
//      first evader wins                       -> kVerifiedCached (few rounds)
//   6. fingerprint mismatch / ranking exhausted: full analyze()
//                                              -> kFullAnalysis   (O(analysis))
//
// Stage 3 only runs when the caller supplies ReadaptHooks with a
// probe_ambiguity (the fleet's are set when ambiguity probing is enabled)
// and a cache; it is what makes "the classifier was swapped for one we
// already know" cost ~3 rounds instead of 2 + #fields + ranking-walk.
//
// Cost accounting rides the runner's round/byte counters, so the <25%-of-
// full-analysis claim is measured, not asserted.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/liberate.h"
#include "deploy/fingerprint.h"
#include "fingerprint/probe.h"

namespace liberate::deploy {

enum class ReadaptPath {
  kStillWorking,        // deployed technique still evades — drift was noise
  kPolicyGone,          // no differentiation at all anymore (policy removed)
  kFingerprintMatched,  // ambiguity digest matched a known implementation
  kVerifiedCached,      // fields verified, another cached technique works
  kFullAnalysis,        // fingerprint mismatch: full re-analysis was needed
};

const char* readapt_path_name(ReadaptPath path);

/// Optional fingerprint-verify stage inputs. `probe_ambiguity` runs the
/// discrepancy catalog against the *live* classifier in isolated worlds;
/// its flows are accounted in ReadaptOutcome::probe_flows, never in replay
/// rounds (probe worlds don't touch the production path).
struct ReadaptHooks {
  std::function<fingerprint::AmbiguityProbeResult()> probe_ambiguity;
  /// Maximum ambiguity_distance() for a nearest-profile match to be trusted.
  /// 0 = only an implementation that resolves every probed discrepancy
  /// identically.
  std::size_t max_distance = 0;
};

/// One stage of the ladder and the probe rounds it spent. Stages appear in
/// execution order; their rounds always sum to the enclosing report's
/// total_rounds (each replay the adaptation ran is inside exactly one stage
/// interval). Plain data, present at every obs level — cost attribution is
/// part of the result, not telemetry.
struct ReadaptStageCost {
  std::string stage;
  int rounds = 0;
};

struct ReadaptOutcome {
  ReadaptPath path = ReadaptPath::kStillWorking;
  /// Working technique after re-adaptation ("" when kPolicyGone or nothing
  /// works even after full analysis).
  std::string technique;
  /// Cost of everything this re-adaptation ran: verification probes plus
  /// (only on the kFullAnalysis path) the full analyze(). For
  /// kFullAnalysis, `report` is the fresh analysis; otherwise it is the
  /// cached knowledge re-expressed with the verification cost as totals.
  core::SessionReport report;
  /// True when the cached matching fields all re-verified (each targeted
  /// blinding probe killed classification).
  bool fingerprint_verified = false;
  /// Per-stage round breakdown of the ladder walk, in execution order
  /// (still-working, policy-gone, fingerprint-verify, field-verification,
  /// ranking-walk, full-analysis — only stages that ran appear). Rounds
  /// always sum to report.total_rounds.
  std::vector<ReadaptStageCost> ladder;

  /// Fingerprint-verify stage results (set only when hooks ran the probes).
  std::size_t probe_flows = 0;
  std::optional<fingerprint::AmbiguityDigest> probed_ambiguity;
  /// Environment name of the matched cache entry ("" = no match).
  std::string matched_environment;

  /// The characterization to deploy next, with `technique` first in its
  /// ranking and `probed_ambiguity` (when the probes ran) attached: the
  /// input entry, the matched implementation's entry re-keyed to this
  /// environment (kFingerprintMatched), or the fresh analysis (kFullAnalysis).
  CachedCharacterization deployed;
};

/// Re-adapt against the live environment behind `lib` using the cached
/// characterization. The two exits that learn new knowledge store
/// ReadaptOutcome::deployed in `cache` (when non-null), working technique
/// first: kFullAnalysis refreshes this environment's entry, and
/// kFingerprintMatched copies the matched implementation's knowledge onto
/// it, so the next drift gets an exact warm hit.
ReadaptOutcome incremental_readapt(core::Liberate& lib,
                                   const trace::ApplicationTrace& trace,
                                   const CachedCharacterization& cached,
                                   ClassifierFingerprintCache* cache,
                                   const ReadaptHooks* hooks = nullptr);

}  // namespace liberate::deploy
