// fingerprint.h — classifier fingerprints and the re-characterization cache.
//
// A deployment's knowledge about a classifier is its characterization: the
// matching fields found by blinding, the behavioural quirks probed in §5.1,
// and the technique ranking from evasion evaluation. That knowledge is
// content-addressed by a 128-bit digest — the *classifier fingerprint* — so
// the control plane can persist it across sessions and, on drift, first
// re-verify the cached rules with a handful of targeted blinding probes
// instead of re-paying the full §5.3 analysis cost (ROADMAP: re-running
// characterization must be O(verification), not O(analysis)).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/liberate.h"
#include "fingerprint/ambiguity.h"
#include "util/digest.h"

namespace liberate::deploy {

/// One evaluation-phase survivor: a technique that evaded, with the §6 cost
/// numbers the ranking orders by.
struct RankedTechnique {
  std::string name;
  std::size_t extra_packets = 0;
  std::size_t extra_bytes = 0;
  double extra_seconds = 0;
};

/// Everything worth remembering about one (environment, application)
/// characterization: the fingerprint, the fields to re-verify, and the
/// fallback chain ordered cheapest-first.
struct CachedCharacterization {
  std::string environment;  // dpi profile name
  std::string app;          // trace app_name
  Fingerprint digest;       // characterization_digest() of the report

  std::vector<core::MatchingField> fields;
  bool position_sensitive = false;
  bool inspects_all_packets = false;
  bool port_sensitive = false;
  std::optional<std::size_t> packet_limit;
  std::optional<int> middlebox_hops;

  /// Techniques that evaded at characterization time, cheapest first
  /// (§4.4 "the most efficient, successful technique").
  std::vector<RankedTechnique> ranking;

  /// The classifier implementation's ambiguity fingerprint, when the probe
  /// engine ran against this environment (docs/fingerprinting.md). Lets the
  /// warm-deploy path fall back from an exact (environment, app) hit to the
  /// nearest-behaving known implementation.
  std::optional<fingerprint::AmbiguityDigest> ambiguity;

  /// The entry's fields and quirks as a report: what `digest` covers.
  core::CharacterizationReport characterization() const;
  /// The TechniqueContext a shim needs to deploy against this classifier.
  core::TechniqueContext context() const;
};

/// Content digest of a characterization report: the classifier rule set as
/// observed from outside (fields + quirks). Two classifiers that
/// characterize identically get the same fingerprint — and a cached entry
/// is exactly as reusable as this digest is stable.
Fingerprint characterization_digest(const core::CharacterizationReport& report);

/// Move the technique named `name` to the front of `ranking`, keeping the
/// rest in order. No-op when `name` is not ranked.
void rank_first(std::vector<RankedTechnique>& ranking, const std::string& name);

/// Build a cache entry from a finished analysis (ranking = evaded outcomes
/// sorted by core::cheaper()).
CachedCharacterization make_cached_characterization(
    const std::string& environment, const std::string& app,
    const core::SessionReport& report);

/// Persistent map of (environment, app) -> CachedCharacterization with a
/// deterministic JSON representation (util/json.h writer, util/json_parse.h
/// reader). 64-bit digests and field bytes are hex strings: JSON numbers
/// are doubles and would corrupt them.
///
/// Schema v2: the top level carries a "digest_format" field naming the
/// ambiguity-digest revision entries were probed with. from_json rejects v1
/// files and format mismatches outright — a pre-ambiguity cache degrades to
/// a cold start instead of poisoning nearest-fingerprint matching. It also
/// rejects any entry whose fields and quirks no longer hash to its stored
/// digest: the file is the §4.2 sharing format, so entries arrive from
/// other users.
class ClassifierFingerprintCache {
 public:
  static constexpr int kSchemaVersion = 2;

  const CachedCharacterization* lookup(const std::string& environment,
                                       const std::string& app) const;
  void store(CachedCharacterization entry);
  std::size_t size() const { return entries_.size(); }

  /// Nearest-behaving cached implementation for `app`: the entry (any
  /// environment) whose ambiguity digest is closest to `probed`, provided it
  /// is within `max_distance`. Entries without a digest never match. Ties
  /// break on the deterministic (environment, app) map order. Returns the
  /// entry and its distance, or {nullptr, SIZE_MAX}.
  std::pair<const CachedCharacterization*, std::size_t> nearest_by_ambiguity(
      const fingerprint::AmbiguityDigest& probed, const std::string& app,
      std::size_t max_distance) const;

  std::string to_json() const;
  static std::optional<ClassifierFingerprintCache> from_json(
      std::string_view text);

  bool save(const std::string& path) const;
  static std::optional<ClassifierFingerprintCache> load(
      const std::string& path);

 private:
  std::map<std::pair<std::string, std::string>, CachedCharacterization>
      entries_;
};

}  // namespace liberate::deploy
