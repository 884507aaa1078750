// delta.h — snapshot-delta merging for fleet wave reports.
//
// The control plane used to ship every shard's full WaveStats to the merge
// point every wave. At fleet scale that is the wrong shape twice over: the
// payload grows with the counter surface (not with what changed), and the
// merge loop re-reads fields that are identical wave after wave (a healthy
// evading fleet changes `flows` and `latency` every wave, and nothing
// else). Snapshot deltas invert it:
//
//   * each shard keeps one cumulative ShardCounters block, bumped inside
//     its own world (no cross-shard synchronization, ever);
//   * at the wave boundary a DeltaPublisher diffs the block against the
//     shard's previous publish and emits only the slots that moved — a
//     sparse, ordered (slot, cumulative value) list;
//   * the control thread's DeltaMerger folds deltas back into per-shard
//     cumulative state and reconstructs the per-wave WaveStats exactly, so
//     the merged FleetReport is byte-identical to a full-snapshot merge at
//     any worker count and either match backend.
//
// Cumulative counters (not per-wave values) make the stream verifiable: the
// merger rejects any value that is not monotone per slot. They do not make
// it self-healing: a publisher diffs against its own previous publish, so
// a delta that never arrives is never shipped again, and a slot that moved
// only in that wave stays stale at the merger. Every delta must arrive,
// in order — the in-process fleet guarantees it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "deploy/drift.h"

namespace liberate::deploy {

/// Counter slots a shard publishes. Fixed and append-only: the slot byte is
/// the wire format of a delta entry.
enum class ShardCounter : std::uint8_t {
  kFlows = 0,
  kDifferentiated,
  kBlocked,
  kIncomplete,
  kLatencyUsSum,
  kLatencySamples,
  kFaultsInjected,
  kFlowsEvicted,
  kPacketsInjected,
  kPacketsRewritten,
  kCount,
};
constexpr std::size_t kShardCounterCount =
    static_cast<std::size_t>(ShardCounter::kCount);

const char* shard_counter_name(ShardCounter c);

/// Cumulative (monotone, per-shard) counter block.
struct ShardCounters {
  std::array<std::uint64_t, kShardCounterCount> v{};

  std::uint64_t& operator[](ShardCounter c) {
    return v[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](ShardCounter c) const {
    return v[static_cast<std::size_t>(c)];
  }
  bool operator==(const ShardCounters& o) const { return v == o.v; }
};

/// One shard's wave-boundary publish: only the slots whose cumulative value
/// moved since the shard's previous publish, in ascending slot order.
struct FleetDelta {
  std::uint32_t shard = 0;
  std::uint32_t wave = 0;
  std::vector<std::pair<std::uint8_t, std::uint64_t>> changed;
};

/// Per-shard diff state. One publisher per shard; publish() compares the
/// current cumulative block against the last published one and emits the
/// sparse difference.
class DeltaPublisher {
 public:
  FleetDelta publish(std::uint32_t shard, std::uint32_t wave,
                     const ShardCounters& now);

 private:
  ShardCounters last_;
};

/// Folds the delta stream back into exact per-shard / merged wave stats.
class DeltaMerger {
 public:
  explicit DeltaMerger(std::size_t shards) : shards_(shards) {
    cumulative_.resize(shards);
    wave_start_.resize(shards);
  }

  /// Apply one shard's wave delta. Returns the shard's reconstructed
  /// WaveStats for that wave (cumulative now minus cumulative at the
  /// shard's previous publish). Malformed deltas — unknown shard, slot out
  /// of range, unordered slots, non-monotone value — are rejected: apply
  /// returns false and changes nothing.
  bool apply(const FleetDelta& delta, WaveStats* out);

  /// Cumulative value of one slot as of the latest applied delta.
  std::uint64_t total(std::size_t shard, ShardCounter c) const {
    return cumulative_[shard][c];
  }
  /// This wave's movement of one slot (cumulative now minus at the previous
  /// publish) — the per-wave fault/eviction deltas telemetry samples.
  std::uint64_t wave_delta(std::size_t shard, ShardCounter c) const {
    return cumulative_[shard][c] - wave_start_[shard][c];
  }
  std::size_t shards() const { return shards_; }
  std::uint64_t deltas_applied() const { return deltas_applied_; }
  /// Counter entries actually shipped vs. the full-snapshot equivalent —
  /// the compression the sparse encoding bought.
  std::uint64_t entries_shipped() const { return entries_shipped_; }
  std::uint64_t entries_full_equivalent() const {
    return deltas_applied_ * kShardCounterCount;
  }

 private:
  std::size_t shards_;
  std::vector<ShardCounters> cumulative_;
  /// Snapshot of `cumulative_` at each shard's previous publish.
  std::vector<ShardCounters> wave_start_;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t entries_shipped_ = 0;
};

/// WaveStats carried by a counter-block difference (end minus start).
WaveStats wave_stats_between(const ShardCounters& start,
                             const ShardCounters& end);

}  // namespace liberate::deploy
