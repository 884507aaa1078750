// blinding.h — binary blinding search for matching fields (§4.2).
//
// "Blinding" a byte range means inverting its bits, which deterministically
// removes any pattern a classifier rule could match. A region is *necessary*
// if blinding it stops classification; halving necessary regions down to a
// small granularity yields the byte ranges of every matching field.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "trace/trace.h"

namespace liberate::core {

struct MatchingField {
  std::size_t message_index = 0;  // which trace message
  std::size_t offset = 0;         // byte offset within that message
  std::size_t length = 0;
  Bytes content;                  // the original (unblinded) bytes
};

struct BlindingStats {
  int replay_rounds = 0;
  std::uint64_t bytes_replayed = 0;
};

/// Oracle: replay each (modified) trace of a wave and report, in order,
/// whether the classifier still classified it. Each trace is one replay
/// round.
using ClassificationOracle =
    std::function<std::vector<bool>(const std::vector<trace::ApplicationTrace>&)>;

/// Return a copy of `trace` with [offset, offset+length) of message
/// `message_index` bit-inverted.
trace::ApplicationTrace blind_range(const trace::ApplicationTrace& trace,
                                    std::size_t message_index,
                                    std::size_t offset, std::size_t length);

/// Find all matching fields in the trace, breadth-first: one wave probes the
/// unmodified baseline, the next every whole message, and each later wave
/// both halves of every region the previous wave found necessary, down to
/// `granularity` bytes (trading rounds for precision, §4.2
/// "characterization efficiency"). The waves depend on the trace and the
/// verdicts alone. Adjacent necessary regions are merged into one field.
std::vector<MatchingField> find_matching_fields(
    const trace::ApplicationTrace& trace, const ClassificationOracle& oracle,
    BlindingStats* stats, std::size_t granularity = 4);

/// §4.2: "distribute disjoint subsets of the tests among multiple users in
/// the same network, and aggregate the results." Each user probes a
/// disjoint subset of the trace's messages with their own replay oracle;
/// the merged field list equals the single-user result while each user's
/// round count shrinks roughly by 1/N. (The paper's caveat applies: an
/// adversary who can read the aggregation point learns the detected rules.)
struct DistributedBlindingStats {
  std::vector<BlindingStats> per_user;
  int total_rounds() const {
    int n = 0;
    for (const auto& s : per_user) n += s.replay_rounds;
    return n;
  }
  int max_user_rounds() const {
    int n = 0;
    for (const auto& s : per_user) n = std::max(n, s.replay_rounds);
    return n;
  }
};

std::vector<MatchingField> find_matching_fields_distributed(
    const trace::ApplicationTrace& trace,
    const std::vector<ClassificationOracle>& users,
    DistributedBlindingStats* stats, std::size_t granularity = 4);

}  // namespace liberate::core
