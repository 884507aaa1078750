// DeltaMerger fuzz smoke. Every fleet shard publishes its cumulative
// ShardCounters through a DeltaPublisher once per wave, and the control
// thread folds the sparse deltas back with DeltaMerger::apply. Each
// iteration seeds a few shards with random monotone counter streams,
// publishes them, and mutates some deltas on the way to the merger: shard
// index out of range, slot >= kShardCounterCount, repeated or descending
// slots, a value below the shard's current cumulative value, dropped entries
// and skipped waves.
//
// The oracle is a dense model of the delivered stream: it expands each
// delta into a full counter block and accepts it iff the shard exists, the
// slots are known and strictly ascending, and no counter moves backwards.
// apply must agree with the model on every verdict. A rejected delta must
// leave every total, wave delta and counter as it was; an accepted one must
// yield exactly wave_stats_between(previous, new) of the model. Locally a
// few hundred iterations; CI raises LIBERATE_FUZZ_ITERATIONS to 10000 under
// ASan/UBSan. A failure names the iteration seed, and
// run_delta_iteration(seed, stats) replays it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "deploy/delta.h"
#include "fuzz/fuzz.h"
#include "util/rng.h"

namespace liberate::deploy {
namespace {

constexpr std::uint64_t kDeltaBaseSeed = 0xDE17A;

enum class Mutation : std::size_t {
  kNone = 0,
  kShardOutOfRange,
  kSlotOutOfRange,
  kRepeatedSlot,
  kDescendingSlots,
  kValueBelowCurrent,
  kDroppedEntry,
  kSkippedWave,
  kCount,
};
constexpr std::size_t kMutations = static_cast<std::size_t>(Mutation::kCount);

struct DeltaFuzzStats {
  std::uint64_t iterations = 0;
  std::uint64_t deltas_delivered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  /// Deltas each mutation produced, indexed by Mutation (kSkippedWave counts
  /// deltas never delivered).
  std::array<std::uint64_t, kMutations> mutated{};
  std::uint64_t mismatches = 0;  // MUST be 0
};

bool same_stats(const WaveStats& a, const WaveStats& b) {
  return a.flows == b.flows && a.differentiated == b.differentiated &&
         a.blocked == b.blocked && a.incomplete == b.incomplete &&
         a.latency_us_sum == b.latency_us_sum &&
         a.latency_samples == b.latency_samples;
}

/// The merger as a caller sees it: every total and wave delta, plus the
/// two stream counters.
struct MergerView {
  std::vector<ShardCounters> totals;
  std::vector<ShardCounters> wave_deltas;
  std::uint64_t deltas_applied = 0;
  std::uint64_t entries_shipped = 0;

  bool operator==(const MergerView&) const = default;
};

MergerView view_of(const DeltaMerger& m) {
  MergerView v;
  v.totals.resize(m.shards());
  v.wave_deltas.resize(m.shards());
  for (std::size_t s = 0; s < m.shards(); ++s) {
    for (std::size_t c = 0; c < kShardCounterCount; ++c) {
      v.totals[s].v[c] = m.total(s, static_cast<ShardCounter>(c));
      v.wave_deltas[s].v[c] = m.wave_delta(s, static_cast<ShardCounter>(c));
    }
  }
  v.deltas_applied = m.deltas_applied();
  v.entries_shipped = m.entries_shipped();
  return v;
}

/// Dense reference for DeltaMerger: full counter blocks, whole-block checks.
class DenseModel {
 public:
  explicit DenseModel(std::size_t shards)
      : cumulative_(shards), wave_start_(shards) {}

  /// Apply `d` if it is well formed; returns false and changes nothing
  /// otherwise. On success `*out` is the wave the delta carried.
  bool apply(const FleetDelta& d, WaveStats* out) {
    if (d.shard >= cumulative_.size()) return false;
    const auto& e = d.changed;
    const auto not_ascending = [](const auto& x, const auto& y) {
      return x.first >= y.first;
    };
    if (std::adjacent_find(e.begin(), e.end(), not_ascending) != e.end()) {
      return false;
    }
    const ShardCounters& prev = cumulative_[d.shard];
    ShardCounters next = prev;
    for (const auto& [slot, value] : e) {
      if (slot >= kShardCounterCount) return false;
      next.v[slot] = value;
    }
    for (std::size_t c = 0; c < kShardCounterCount; ++c) {
      if (next.v[c] < prev.v[c]) return false;
    }
    *out = wave_stats_between(prev, next);
    wave_start_[d.shard] = prev;
    cumulative_[d.shard] = next;
    ++deltas_applied_;
    entries_shipped_ += d.changed.size();
    return true;
  }

  std::uint64_t cumulative(std::size_t shard, std::size_t slot) const {
    return cumulative_[shard].v[slot];
  }

  MergerView view() const {
    MergerView v;
    v.totals = cumulative_;
    v.wave_deltas.resize(cumulative_.size());
    for (std::size_t s = 0; s < cumulative_.size(); ++s) {
      for (std::size_t c = 0; c < kShardCounterCount; ++c) {
        v.wave_deltas[s].v[c] = cumulative_[s].v[c] - wave_start_[s].v[c];
      }
    }
    v.deltas_applied = deltas_applied_;
    v.entries_shipped = entries_shipped_;
    return v;
  }

 private:
  std::vector<ShardCounters> cumulative_;
  std::vector<ShardCounters> wave_start_;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t entries_shipped_ = 0;
};

/// Advance one shard's true counters by a random monotone step: a few slots
/// move, by small amounts or (rarely) by a large jump.
void advance(Rng& rng, ShardCounters& truth) {
  const std::size_t moves = rng.below(kShardCounterCount + 1);
  for (std::size_t m = 0; m < moves; ++m) {
    std::uint64_t& v = truth.v[rng.below(kShardCounterCount)];
    v += rng.chance(0.05) ? rng.below(std::uint64_t{1} << 40)
                          : rng.below(1000);
  }
}

/// Rewrite `d` by one mutation; returns the one applied (kNone when the
/// delta has no room for the one drawn).
Mutation mutate(Rng& rng, FleetDelta& d, std::size_t shards,
                const DenseModel& model) {
  auto& e = d.changed;
  const Mutation m = static_cast<Mutation>(1 + rng.below(kMutations - 1));
  switch (m) {
    case Mutation::kShardOutOfRange:
      d.shard = rng.chance(0.2)
                    ? 0xffffffffu
                    : static_cast<std::uint32_t>(shards + rng.below(4));
      return m;
    case Mutation::kSlotOutOfRange: {
      const auto slot = static_cast<std::uint8_t>(
          kShardCounterCount + rng.below(256 - kShardCounterCount));
      if (e.empty() || rng.chance(0.5)) {
        e.emplace_back(slot, rng.next());
      } else {
        e[rng.below(e.size())].first = slot;
      }
      return m;
    }
    case Mutation::kRepeatedSlot: {
      if (e.empty()) return Mutation::kNone;
      const std::size_t i = rng.below(e.size());
      auto copy = e[i];
      if (rng.chance(0.5)) copy.second += rng.below(100);
      e.insert(e.begin() + static_cast<std::ptrdiff_t>(i) + 1, copy);
      return m;
    }
    case Mutation::kDescendingSlots: {
      if (e.size() < 2) return Mutation::kNone;
      const std::size_t i = rng.below(e.size() - 1);
      std::swap(e[i], e[i + 1 + rng.below(e.size() - i - 1)]);
      return m;
    }
    case Mutation::kValueBelowCurrent: {
      if (d.shard >= shards) return Mutation::kNone;
      std::vector<std::uint8_t> positive;
      for (std::size_t c = 0; c < kShardCounterCount; ++c) {
        if (model.cumulative(d.shard, c) > 0) {
          positive.push_back(static_cast<std::uint8_t>(c));
        }
      }
      if (positive.empty()) return Mutation::kNone;
      const std::uint8_t slot = positive[rng.below(positive.size())];
      const std::uint64_t cur = model.cumulative(d.shard, slot);
      const std::uint64_t value = cur - 1 - rng.below(cur);
      auto it = e.begin();
      while (it != e.end() && it->first < slot) ++it;
      if (it != e.end() && it->first == slot) {
        it->second = value;
      } else {
        e.insert(it, {slot, value});
      }
      return m;
    }
    case Mutation::kDroppedEntry:
      if (e.empty()) return Mutation::kNone;
      e.erase(e.begin() + static_cast<std::ptrdiff_t>(rng.below(e.size())));
      return m;
    case Mutation::kSkippedWave:
    case Mutation::kNone:
    case Mutation::kCount:
      break;
  }
  return m;
}

void run_delta_iteration(std::uint64_t seed, DeltaFuzzStats& stats) {
  Rng rng(seed);
  ++stats.iterations;
  const std::size_t shards = 1 + rng.below(4);
  const std::size_t waves = 2 + rng.below(12);
  // One iteration in five delivers the stream as published.
  const double mutate_p = rng.chance(0.2) ? 0.0 : 0.35;

  std::vector<ShardCounters> truth(shards);
  std::vector<DeltaPublisher> publishers(shards);
  DeltaMerger merger(shards);
  DenseModel model(shards);

  for (std::size_t wave = 0; wave < waves; ++wave) {
    for (std::size_t s = 0; s < shards; ++s) {
      advance(rng, truth[s]);
      FleetDelta d = publishers[s].publish(static_cast<std::uint32_t>(s),
                                           static_cast<std::uint32_t>(wave),
                                           truth[s]);
      Mutation m = Mutation::kNone;
      if (rng.chance(mutate_p)) m = mutate(rng, d, shards, model);
      ++stats.mutated[static_cast<std::size_t>(m)];
      if (m == Mutation::kSkippedWave) continue;

      ++stats.deltas_delivered;
      WaveStats got, want;
      const bool accepted = merger.apply(d, &got);
      const bool expected = model.apply(d, &want);
      if (accepted != expected) ++stats.mismatches;
      if (accepted && expected && !same_stats(got, want)) ++stats.mismatches;
      // After either verdict the merger must read as the model does, so a
      // rejected delta changed nothing.
      if (view_of(merger) != model.view()) ++stats.mismatches;
      ++(accepted ? stats.accepted : stats.rejected);
    }
  }
  // A stream delivered as published must end at the true counters.
  if (mutate_p == 0.0 && view_of(merger).totals != truth) ++stats.mismatches;
}

TEST(FuzzSmokeDelta, MergerAgreesWithDenseModelUnderMutation) {
  const std::uint64_t iterations = fuzz::campaign_iterations(400);
  DeltaFuzzStats stats;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed = fuzz::iteration_seed(kDeltaBaseSeed, i);
    run_delta_iteration(seed, stats);
    ASSERT_EQ(stats.mismatches, 0u)
        << "repro: run_delta_iteration(0x" << std::hex << seed
        << "ULL, stats) in tests/fuzz/delta_fuzz_test.cc";
  }
  EXPECT_EQ(stats.iterations, iterations);
  // Coverage: both verdicts, and every mutation, actually happened.
  EXPECT_GT(stats.accepted, stats.rejected);
  EXPECT_GT(stats.rejected, 0u);
  for (std::size_t m = 0; m < kMutations; ++m) {
    EXPECT_GT(stats.mutated[m], 0u) << "mutation " << m << " never ran";
  }
}

TEST(FuzzSmokeDelta, CampaignIsDeterministic) {
  DeltaFuzzStats a, b;
  for (std::uint64_t i = 0; i < 50; ++i) {
    run_delta_iteration(fuzz::iteration_seed(7, i), a);
    run_delta_iteration(fuzz::iteration_seed(7, i), b);
  }
  EXPECT_EQ(a.deltas_delivered, b.deltas_delivered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.mutated, b.mutated);
  EXPECT_EQ(a.mismatches, 0u);
}

}  // namespace
}  // namespace liberate::deploy
