#include "core/blinding.h"

#include <algorithm>

namespace liberate::core {

trace::ApplicationTrace blind_range(const trace::ApplicationTrace& trace,
                                    std::size_t message_index,
                                    std::size_t offset, std::size_t length) {
  trace::ApplicationTrace out = trace;
  if (message_index >= out.messages.size()) return out;
  Bytes& payload = out.messages[message_index].payload;
  std::size_t end = std::min(payload.size(), offset + length);
  for (std::size_t i = offset; i < end; ++i) {
    payload[i] = static_cast<std::uint8_t>(~payload[i]);
  }
  return out;
}

namespace {

/// The breadth-first search over messages first, first + stride, ...:
/// returns the unmerged necessary regions (empty when the baseline is not
/// classified — there are then no matching fields to find).
std::vector<MatchingField> search(const trace::ApplicationTrace& trace,
                                  const ClassificationOracle& oracle,
                                  BlindingStats* stats, std::size_t granularity,
                                  std::size_t first, std::size_t stride) {
  granularity = std::max<std::size_t>(granularity, 1);

  auto probe_batch = [&](const std::vector<trace::ApplicationTrace>& probes) {
    if (stats != nullptr) {
      stats->replay_rounds += static_cast<int>(probes.size());
      for (const auto& p : probes) stats->bytes_replayed += p.total_bytes();
    }
    return oracle(probes);
  };

  if (!probe_batch({trace})[0]) return {};

  struct Region {
    std::size_t msg, off, len;
  };
  std::vector<Region> frontier;
  for (std::size_t m = first; m < trace.messages.size(); m += stride) {
    std::size_t len = trace.messages[m].payload.size();
    if (len > 0) frontier.push_back(Region{m, 0, len});
  }

  std::vector<MatchingField> fields;
  while (!frontier.empty()) {
    std::vector<trace::ApplicationTrace> probes;
    probes.reserve(frontier.size());
    for (const Region& r : frontier) {
      probes.push_back(blind_range(trace, r.msg, r.off, r.len));
    }
    std::vector<bool> verdicts = probe_batch(probes);

    std::vector<Region> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const Region& r = frontier[i];
      if (verdicts[i]) continue;  // still classified: nothing necessary here
      if (r.len <= granularity) {
        fields.push_back(MatchingField{r.msg, r.off, r.len, {}});
        continue;
      }
      // A field straddling the midpoint is still found: blinding either
      // half of a keyword breaks it, so both halves stay necessary.
      std::size_t half = r.len / 2;
      next.push_back(Region{r.msg, r.off, half});
      next.push_back(Region{r.msg, r.off + half, r.len - half});
    }
    frontier = std::move(next);
  }
  return fields;
}

/// Sort, merge adjacent regions and attach original content.
std::vector<MatchingField> merge_fields(const trace::ApplicationTrace& trace,
                                        std::vector<MatchingField> fields) {
  std::sort(fields.begin(), fields.end(),
            [](const MatchingField& a, const MatchingField& b) {
              if (a.message_index != b.message_index) {
                return a.message_index < b.message_index;
              }
              return a.offset < b.offset;
            });
  std::vector<MatchingField> merged;
  for (const MatchingField& f : fields) {
    if (!merged.empty() && merged.back().message_index == f.message_index &&
        merged.back().offset + merged.back().length >= f.offset) {
      merged.back().length =
          std::max(merged.back().offset + merged.back().length,
                   f.offset + f.length) -
          merged.back().offset;
    } else {
      merged.push_back(f);
    }
  }
  for (MatchingField& f : merged) {
    const Bytes& payload = trace.messages[f.message_index].payload;
    f.content.assign(
        payload.begin() + static_cast<std::ptrdiff_t>(f.offset),
        payload.begin() + static_cast<std::ptrdiff_t>(
                              std::min(payload.size(), f.offset + f.length)));
  }
  return merged;
}

}  // namespace

std::vector<MatchingField> find_matching_fields(
    const trace::ApplicationTrace& trace, const ClassificationOracle& oracle,
    BlindingStats* stats, std::size_t granularity) {
  return merge_fields(trace,
                      search(trace, oracle, stats, granularity, 0, 1));
}

std::vector<MatchingField> find_matching_fields_distributed(
    const trace::ApplicationTrace& trace,
    const std::vector<ClassificationOracle>& users,
    DistributedBlindingStats* stats, std::size_t granularity) {
  if (stats != nullptr) stats->per_user.assign(users.size(), BlindingStats{});
  // Each user confirms the baseline once, then probes only their share of
  // the trace's messages (round-robin assignment). A user whose vantage
  // sees no differentiation contributes nothing.
  std::vector<MatchingField> fields;
  for (std::size_t u = 0; u < users.size(); ++u) {
    std::vector<MatchingField> mine =
        search(trace, users[u], stats ? &stats->per_user[u] : nullptr,
               granularity, u, users.size());
    fields.insert(fields.end(), mine.begin(), mine.end());
  }
  return merge_fields(trace, std::move(fields));
}

}  // namespace liberate::core
