// registry.h — the full evasion suite, with the ordering/pruning policy of
// §5.2 ("Efficient evasion testing").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/evasion/flush.h"
#include "core/evasion/inert.h"
#include "core/evasion/split.h"
#include "core/evasion/technique.h"

namespace liberate::core {

/// Everything lib·erate knows, in Table 3 row order: 17 inert variants, 2
/// splitting, 3 reordering, 4 flushing techniques.
std::vector<std::unique_ptr<Technique>> build_full_suite();

/// One suite technique, built by name (nullptr if no technique has it).
std::unique_ptr<Technique> make_technique(const std::string& name);

/// What characterization learned, as far as pruning/ordering cares.
struct PruningFacts {
  bool inspects_all_packets = false;  // Iran: inert & flushing are hopeless
  bool udp_flow = false;
  /// Techniques observed to work in the paper's study are tried first
  /// ("lib·erate tests evasion techniques that were effective in our study
  /// first", §5.2).
  bool prioritize_known_effective = true;
};

/// Order the suite for evaluation and drop techniques that characterization
/// proves useless. Returned pointers alias `suite`.
std::vector<Technique*> ordered_suite(
    const std::vector<std::unique_ptr<Technique>>& suite,
    const PruningFacts& facts);

/// The decoy request carried by inert packets: a valid request for a benign
/// application every classifier recognizes but none differentiates.
Bytes decoy_request_payload();

}  // namespace liberate::core
