// hdr_histogram.h — log-linear bucketed latency histogram.
//
// The registry's histogram type. A fixed-bucket histogram cannot answer
// "what is the fleet's p999 flow latency" without hand-tuning bounds per
// metric; HdrHistogram has no bounds to tune. It covers the full uint64
// value range with log-linear buckets: values below
// kSubBuckets are recorded exactly, and every power-of-two octave above
// that is split into kSubBuckets/2 linear sub-buckets, bounding the
// relative bucket width at 2^-(kSubBucketBits-1) (3.125% here). That is
// the same trade HdrHistogram-the-library makes, reimplemented on the
// repo's per-worker relaxed-atomic shard cells (see shard.h) so record()
// stays a single uncontended fetch_add on the hot path.
//
// Determinism contract: bucket counts are exact (never sampled, never
// lossy), so merged counts are identical no matter how observations were
// distributed across threads, and quantiles are derived from counts alone
// using the deterministic bucket midpoint — the same recorded multiset
// yields byte-identical quantiles on every worker count and backend.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/shard.h"

namespace liberate::obs {

/// Plain-value snapshot of an HdrHistogram: exact bucket counts plus the
/// derived summary. Mergeable — merge() adds counts cell-wise, which is
/// exact because counts are exact.
struct HdrSnapshot {
  std::vector<std::uint64_t> counts;  // one per bucket, index = bucket index
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  // exact sum of recorded values
  std::uint64_t max = 0;

  void merge(const HdrSnapshot& other);

  /// Deterministic quantile: the midpoint of the first bucket whose
  /// cumulative count reaches ceil(q * count). q outside [0,1] is clamped.
  std::uint64_t value_at_quantile(double q) const;
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

class HdrHistogram {
 public:
  /// 2^5 = 32 linear sub-buckets per octave: relative bucket width is at
  /// most 1/32, so a bucket-midpoint quantile is within ~1.6% of the true
  /// order statistic.
  static constexpr unsigned kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;
  /// Octaves above the exact region: values up to 2^64-1 land in octave 63,
  /// so every uint64 is representable — no overflow bucket needed.
  static constexpr unsigned kOctaves = 64 - kSubBucketBits;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kSubBuckets) +
      static_cast<std::size_t>(kOctaves) * (kSubBuckets / 2);

  /// Bucket index for a value. Values < kSubBuckets map to themselves
  /// (exact); larger values map log-linearly.
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    // exp >= 1: shifting by exp puts the top set bit at position
    // kSubBucketBits-1, so (v >> exp) is in [kSubBuckets/2, kSubBuckets).
    const unsigned exp = bit_width(v) - kSubBucketBits;
    const std::uint64_t sub = v >> exp;
    return static_cast<std::size_t>(kSubBuckets +
                                    (exp - 1) * (kSubBuckets / 2) +
                                    (sub - kSubBuckets / 2));
  }

  /// Inclusive value range covered by a bucket.
  static std::uint64_t bucket_lower(std::size_t index) {
    if (index < kSubBuckets) return static_cast<std::uint64_t>(index);
    const std::size_t rel = index - kSubBuckets;
    const unsigned exp = static_cast<unsigned>(rel / (kSubBuckets / 2)) + 1;
    const std::uint64_t sub = kSubBuckets / 2 + rel % (kSubBuckets / 2);
    return sub << exp;
  }
  static std::uint64_t bucket_upper(std::size_t index) {
    if (index < kSubBuckets) return static_cast<std::uint64_t>(index);
    const std::size_t rel = index - kSubBuckets;
    const unsigned exp = static_cast<unsigned>(rel / (kSubBuckets / 2)) + 1;
    const std::uint64_t sub = kSubBuckets / 2 + rel % (kSubBuckets / 2);
    // ((sub+1) << exp) - 1; sub+1 can be kSubBuckets, which still fits.
    return ((sub + 1) << exp) - 1;
  }
  /// The deterministic representative value quantiles report: the integer
  /// midpoint of the bucket's inclusive range (exact buckets report the
  /// value itself).
  static std::uint64_t bucket_midpoint(std::size_t index) {
    const std::uint64_t lo = bucket_lower(index);
    const std::uint64_t hi = bucket_upper(index);
    return lo + (hi - lo) / 2;
  }

  /// One relaxed fetch_add into the caller's shard (plus a CAS loop for the
  /// shard-local max, contended only within one shard).
  void record(std::uint64_t v) {
    Shard& s = shards_[shard_index()];
    s.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = s.max.load(std::memory_order_relaxed);
    while (v > m &&
           !s.max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  HdrSnapshot snapshot() const {
    HdrSnapshot snap;
    snap.counts.assign(kBucketCount, 0);
    for (const Shard& s : shards_) {
      for (std::size_t b = 0; b < kBucketCount; ++b) {
        const std::uint64_t c = s.counts[b].load(std::memory_order_relaxed);
        snap.counts[b] += c;
        snap.count += c;
      }
      snap.sum += s.sum.load(std::memory_order_relaxed);
      const std::uint64_t m = s.max.load(std::memory_order_relaxed);
      if (m > snap.max) snap.max = m;
    }
    return snap;
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const Shard& s : shards_) {
      for (std::size_t b = 0; b < kBucketCount; ++b) {
        n += s.counts[b].load(std::memory_order_relaxed);
      }
    }
    return n;
  }

  void reset() {
    for (Shard& s : shards_) {
      for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      s.max.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static unsigned bit_width(std::uint64_t v) {
    unsigned w = 0;
    while (v != 0) {
      v >>= 1;
      ++w;
    }
    return w;
  }

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount> counts{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  std::array<Shard, kShards> shards_{};
};

inline void HdrSnapshot::merge(const HdrSnapshot& other) {
  if (counts.size() < other.counts.size()) {
    counts.resize(other.counts.size(), 0);
  }
  for (std::size_t b = 0; b < other.counts.size(); ++b) {
    counts[b] += other.counts[b];
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

inline std::uint64_t HdrSnapshot::value_at_quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // ceil(q * count), clamped to [1, count]: rank of the order statistic.
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) rank += 1;
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (cumulative >= rank) return HdrHistogram::bucket_midpoint(b);
  }
  return HdrHistogram::bucket_midpoint(counts.empty() ? 0 : counts.size() - 1);
}

}  // namespace liberate::obs
