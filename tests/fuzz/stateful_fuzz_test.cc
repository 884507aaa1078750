// Stateful fuzz smoke: adversarial fragment streams through IpReassembler
// and adversarial segment streams through a live TcpConnection (including
// wrap-adjacent ISNs). Iteration count scales via LIBERATE_FUZZ_ITERATIONS
// (CI: 10000 under ASan/UBSan); every failure prints its one-seed repro.
#include "fuzz/fuzz.h"

#include <gtest/gtest.h>

namespace liberate::fuzz {
namespace {

constexpr std::uint64_t kStatefulBaseSeed = 0x57A7E;

TEST(FuzzSmokeStateful, CampaignRunsCleanWithinResourceBounds) {
  const std::uint64_t iterations = campaign_iterations(150);
  FuzzStats stats;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed = iteration_seed(kStatefulBaseSeed, i);
    run_stateful_iteration(seed, stats);
    ASSERT_EQ(stats.roundtrip_mismatches, 0u)
        << "repro: liberate::fuzz::run_stateful_iteration(0x" << std::hex
        << seed << "ULL, stats)";
  }
  EXPECT_EQ(stats.iterations, iterations);
  EXPECT_GT(stats.fragments_pushed, iterations);
  EXPECT_GT(stats.segments_injected, 10 * iterations);
  // Some sessions must actually deliver stream bytes, or the harness is
  // only ever exercising the reject paths.
  EXPECT_GT(stats.stream_bytes_delivered, 0u);
}

TEST(FuzzSmokeStateful, CampaignIsDeterministic) {
  FuzzStats a = run_stateful_campaign(11, 20);
  FuzzStats b = run_stateful_campaign(11, 20);
  EXPECT_EQ(a.fragments_pushed, b.fragments_pushed);
  EXPECT_EQ(a.segments_injected, b.segments_injected);
  EXPECT_EQ(a.datagrams_reassembled, b.datagrams_reassembled);
  EXPECT_EQ(a.stream_bytes_delivered, b.stream_bytes_delivered);
}

}  // namespace
}  // namespace liberate::fuzz
