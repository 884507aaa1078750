// characterization.h — reverse-engineering the classifier (§4.2, §5.1).
//
// Produces everything the evasion phase needs: the matching fields (via
// blinding), whether classification is position-sensitive (a 1-byte prepend
// changes it), the packet-count inspection limit (prepend MTU-sized then
// 1-byte packets), whether the classifier inspects every packet
// (match-and-forget detection), port sensitivity, and the middlebox's hop
// distance (TTL probing, §5.2) — plus the §6 cost accounting (rounds, bytes,
// virtual time).
#pragma once

#include <optional>

#include "core/blinding.h"
#include "core/replay.h"

namespace liberate::core {

struct CharacterizationReport {
  std::vector<MatchingField> fields;

  /// Prepending a single 1-byte packet changes classification (GET-anchored
  /// or position-indexed rules — T-Mobile, GFC, testbed Skype).
  bool position_sensitive = false;
  /// Classifier stops matching after the first N payload packets
  /// (nullopt = no limit observed up to the probe ceiling).
  std::optional<std::size_t> packet_limit;
  /// No prepend count changed classification: the classifier inspects every
  /// packet (Iran). Inert insertion and flushing are then pointless.
  bool inspects_all_packets = false;
  bool match_and_forget() const { return !inspects_all_packets; }

  /// Moving the server to a different port evades classification entirely
  /// (Iran, AT&T).
  bool port_sensitive = false;

  /// Smallest TTL at which the classifier still reacted (= middlebox hop
  /// distance); nullopt if TTL probing found nothing (e.g. AT&T's proxy
  /// terminates the probe flow).
  std::optional<int> middlebox_hops;

  // Cost accounting (§6 "Efficiency of classifier analysis").
  int replay_rounds = 0;
  std::uint64_t bytes_replayed = 0;
  double virtual_seconds = 0;

  /// Matching-field byte snippets, ready for TechniqueContext.
  std::vector<Bytes> snippets() const {
    std::vector<Bytes> out;
    for (const auto& f : fields) out.push_back(f.content);
    return out;
  }
};

struct CharacterizationOptions {
  /// Give every replay round its own server port — required against the
  /// GFC, which blocks a server:port after two classified flows (§6.5).
  bool unique_port_per_round = false;
  /// Keep the trace's port for every round (Iran: rules are port-specific,
  /// so characterization must stay on port 80 — §6.6).
  bool pin_trace_port = false;
  std::size_t max_prepend_packets = 10;  // §5.1 probe ceiling
  std::size_t blinding_granularity = 4;
  bool probe_ttl = true;
  std::size_t max_ttl_probe = 16;
};

/// Port sensitivity, then breadth-first blinding, then the position probe
/// with the whole MTU-prepend ladder as one wave, then the TTL sweep in
/// waves of 8. The ladder and each TTL wave carry a stop predicate: a shared
/// world stops at the first prepend count that changes classification and
/// the first TTL that reaches the classifier, an isolated world probes the
/// rest speculatively. Both report the same fields and facts.
CharacterizationReport characterize_classifier(
    ProbeExecutor& executor, const trace::ApplicationTrace& trace,
    const CharacterizationOptions& options = {});

}  // namespace liberate::core
