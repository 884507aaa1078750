// Codec fuzz smoke: seed-driven parse→mutate→serialize campaigns over every
// wire codec and application parser. Locally a few hundred iterations; CI
// raises LIBERATE_FUZZ_ITERATIONS to 10000 under ASan/UBSan. Any failure
// names the exact iteration seed — `run_codec_iteration(seed, stats)` is the
// whole repro.
#include "fuzz/fuzz.h"

#include <gtest/gtest.h>

namespace liberate::fuzz {
namespace {

constexpr std::uint64_t kCodecBaseSeed = 0xC0DEC;

TEST(FuzzSmokeCodec, CampaignRunsCleanAndCoversEveryPath) {
  const std::uint64_t iterations = campaign_iterations(400);
  FuzzStats stats;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed = iteration_seed(kCodecBaseSeed, i);
    run_codec_iteration(seed, stats);
    ASSERT_EQ(stats.roundtrip_mismatches, 0u)
        << "repro: liberate::fuzz::run_codec_iteration(0x" << std::hex << seed
        << "ULL, stats)";
  }
  EXPECT_EQ(stats.iterations, iterations);
  // Coverage telemetry: a campaign that stopped exercising a path is a bug
  // in the harness, not a pass.
  EXPECT_GT(stats.inputs, 3 * iterations);
  EXPECT_GT(stats.parsed_packets, 0u);
  EXPECT_GT(stats.roundtrips_checked, iterations);
  EXPECT_GT(stats.datagrams_reassembled, 0u);
}

TEST(FuzzSmokeCodec, CampaignIsDeterministic) {
  FuzzStats a = run_codec_campaign(7, 50);
  FuzzStats b = run_codec_campaign(7, 50);
  EXPECT_EQ(a.inputs, b.inputs);
  EXPECT_EQ(a.parsed_packets, b.parsed_packets);
  EXPECT_EQ(a.roundtrips_checked, b.roundtrips_checked);
  EXPECT_EQ(a.datagrams_reassembled, b.datagrams_reassembled);
  EXPECT_EQ(a.fragments_pushed, b.fragments_pushed);
}

TEST(FuzzSmokeCodec, IterationSeedsAreDistinctStreams) {
  EXPECT_NE(iteration_seed(1, 0), iteration_seed(1, 1));
  EXPECT_NE(iteration_seed(1, 0), iteration_seed(2, 0));
}

TEST(FuzzCorpus, EveryCheckedInEntryReplaysClean) {
  auto entries = load_corpus(LIBERATE_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(entries.empty())
      << "no corpus at " << LIBERATE_FUZZ_CORPUS_DIR;
  FuzzStats stats;
  for (const CorpusEntry& e : entries) {
    SCOPED_TRACE(e.name);
    ASSERT_FALSE(e.data.empty()) << "empty/undecodable corpus file";
    run_corpus_entry(e.data, stats);
    // Mutated corpus neighborhood: every prefix and a few bit flips.
    for (std::size_t n = 0; n <= e.data.size();
         n += 1 + e.data.size() / 64) {
      run_corpus_entry(BytesView(e.data.data(), n), stats);
    }
    for (std::size_t bit = 0; bit < 32 && bit < e.data.size() * 8;
         bit += 7) {
      Bytes flipped = e.data;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      run_corpus_entry(flipped, stats);
    }
  }
  EXPECT_EQ(stats.roundtrip_mismatches, 0u);
  EXPECT_GT(stats.inputs, entries.size());
}

}  // namespace
}  // namespace liberate::fuzz
