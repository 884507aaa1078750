// obs::Ring, the bounded FIFO under every obs store: oldest-first order
// across wraps, exact total/dropped accounting, and clear() starting over.
#include "obs/ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace liberate::obs {
namespace {

std::vector<int> iota(int from, int to) {
  std::vector<int> out;
  for (int v = from; v < to; ++v) out.push_back(v);
  return out;
}

TEST(ObsRing, StartsEmpty) {
  Ring<int> ring(3);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.to_vector().empty());
}

TEST(ObsRing, CapacityOneKeepsOnlyTheNewest) {
  Ring<int> ring(1);
  for (int v = 0; v < 5; ++v) {
    ring.push(v);
    EXPECT_EQ(ring.to_vector(), std::vector<int>{v});
    EXPECT_EQ(ring.total(), static_cast<std::uint64_t>(v + 1));
    EXPECT_EQ(ring.dropped(), static_cast<std::uint64_t>(v));
  }
}

// Every push count from empty through several wraps, including each exact
// multiple of the capacity, where the oldest slot is back at index 0.
TEST(ObsRing, OldestFirstAcrossWraps) {
  constexpr int kCap = 3;
  Ring<int> ring(kCap);
  for (int n = 1; n <= 4 * kCap + 1; ++n) {
    ring.push(n - 1);
    const int live = n < kCap ? n : kCap;
    EXPECT_EQ(ring.to_vector(), iota(n - live, n)) << "after " << n;
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(live));
    EXPECT_EQ(ring.total(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(ring.dropped(), static_cast<std::uint64_t>(n - live));
  }
}

TEST(ObsRing, ClearStartsOver) {
  Ring<int> ring(3);
  for (int v = 0; v < 7; ++v) ring.push(v);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.to_vector().empty());
  ring.push(10);
  ring.push(11);
  EXPECT_EQ(ring.to_vector(), (std::vector<int>{10, 11}));
  ring.push(12);
  ring.push(13);
  EXPECT_EQ(ring.to_vector(), (std::vector<int>{11, 12, 13}));
  EXPECT_EQ(ring.total(), 4u);
  EXPECT_EQ(ring.dropped(), 1u);
}

// Overwriting a slot replaces its whole value: no string from an evicted
// record survives into the one that took its slot.
TEST(ObsRing, HoldsStrings) {
  Ring<std::string> ring(3);
  for (int v = 0; v < 8; ++v) {
    ring.push(std::string(static_cast<std::size_t>(40 - v),
                          static_cast<char>('a' + v)) +
              std::to_string(v));
  }
  const std::vector<std::string> live = ring.to_vector();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0], std::string(35, 'f') + "5");
  EXPECT_EQ(live[1], std::string(34, 'g') + "6");
  EXPECT_EQ(live[2], std::string(33, 'h') + "7");
  EXPECT_EQ(ring.total(), 8u);
  EXPECT_EQ(ring.dropped(), 5u);
}

}  // namespace
}  // namespace liberate::obs
