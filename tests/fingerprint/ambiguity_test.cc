// AmbiguityDigest unit tests: ordering invariance, distance semantics, and
// the strict JSON codec (docs/fingerprinting.md).
#include "fingerprint/ambiguity.h"

#include <gtest/gtest.h>

namespace liberate::fingerprint {
namespace {

AmbiguityDigest digest_of(std::initializer_list<DimensionResult> dims) {
  AmbiguityDigest d;
  for (const DimensionResult& r : dims) d.add(r);
  return d;
}

TEST(AmbiguityDigest, DimensionsSortRegardlessOfInsertionOrder) {
  AmbiguityDigest forward = digest_of({{"alpha", 1, 2}, {"beta", 2, 2}});
  AmbiguityDigest reversed = digest_of({{"beta", 2, 2}, {"alpha", 1, 2}});
  EXPECT_EQ(forward, reversed);
  EXPECT_EQ(forward.fingerprint_hex(), reversed.fingerprint_hex());
  ASSERT_EQ(forward.dims.size(), 2u);
  EXPECT_EQ(forward.dims[0].dimension, "alpha");
  EXPECT_EQ(forward.dims[1].dimension, "beta");
}

TEST(AmbiguityDigest, FindLocatesDimensions) {
  AmbiguityDigest d = digest_of({{"tcp-overlap", 0x39, 3}});
  ASSERT_NE(d.find("tcp-overlap"), nullptr);
  EXPECT_EQ(d.find("tcp-overlap")->bits, 0x39u);
  EXPECT_EQ(d.find("missing"), nullptr);
  EXPECT_FALSE(d.empty());
  EXPECT_TRUE(AmbiguityDigest{}.empty());
}

TEST(AmbiguityDigest, FingerprintSensitiveToBitsAndDimensions) {
  AmbiguityDigest a = digest_of({{"tcp-overlap", 0x39, 3}});
  AmbiguityDigest bits = digest_of({{"tcp-overlap", 0x3a, 3}});
  AmbiguityDigest name = digest_of({{"tcp-underlap", 0x39, 3}});
  EXPECT_NE(a.fingerprint_hex(), bits.fingerprint_hex());
  EXPECT_NE(a.fingerprint_hex(), name.fingerprint_hex());
}

TEST(AmbiguityDistance, HammingOverSharedDimensions) {
  AmbiguityDigest a = digest_of({{"x", 0b0110, 2}, {"y", 0b01, 1}});
  AmbiguityDigest b = digest_of({{"x", 0b0101, 2}, {"y", 0b01, 1}});
  EXPECT_EQ(ambiguity_distance(a, a), 0u);
  EXPECT_EQ(ambiguity_distance(a, b), 2u);  // bits 0 and 1 of "x" differ
  EXPECT_EQ(ambiguity_distance(b, a), 2u);
}

TEST(AmbiguityDistance, UnsharedDimensionsPayFullWidth) {
  AmbiguityDigest a = digest_of({{"x", 0b01, 1}});
  AmbiguityDigest b = digest_of({{"x", 0b01, 1}, {"z", 0b1010, 2}});
  // "z" is probed on one side only: 2 * variant_count = 4 penalty.
  EXPECT_EQ(ambiguity_distance(a, b), 4u);
  EXPECT_EQ(ambiguity_distance(b, a), 4u);
}

TEST(AmbiguityDigest, JsonRoundTripIsExact) {
  AmbiguityDigest d =
      digest_of({{"frag-overlap", 0xaa, 4}, {"tcp-overlap", 0x39, 3}});
  auto parsed = AmbiguityDigest::from_json(d.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, d);
  EXPECT_EQ(parsed->to_json(), d.to_json());
}

TEST(AmbiguityDigest, JsonRejectsMalformedAndWrongVersion) {
  EXPECT_FALSE(AmbiguityDigest::from_json("").has_value());
  EXPECT_FALSE(AmbiguityDigest::from_json("[]").has_value());
  EXPECT_FALSE(AmbiguityDigest::from_json("{\"version\":1}").has_value());
  AmbiguityDigest d = digest_of({{"x", 1, 1}});
  std::string text = d.to_json();
  const std::size_t at = text.find(":1");
  ASSERT_NE(at, std::string::npos);
  std::string wrong = text;
  wrong.replace(at, 2, ":9");
  EXPECT_FALSE(AmbiguityDigest::from_json(wrong).has_value());
}

// Integers arrive as JSON doubles; each of these is out of range (or not
// an integer) for the int version and the uint32 bits and variant count,
// and converting it would be undefined behaviour.
TEST(AmbiguityDigest, JsonRejectsOutOfRangeIntegers) {
  const std::string ok = digest_of({{"x", 1, 1}}).to_json();
  for (const std::string key : {"\"version\":", "\"bits\":", "\"variants\":"}) {
    const std::size_t at = ok.find(key + "1");
    ASSERT_NE(at, std::string::npos) << key;
    for (const char* bad : {"1e300", "-1", "4294967296", "2.5"}) {
      std::string text = ok;
      text.replace(at + key.size(), 1, bad);
      EXPECT_FALSE(AmbiguityDigest::from_json(text).has_value()) << key << bad;
    }
  }
}

TEST(AmbiguityDigest, ResolutionLabelRendersHexBits) {
  EXPECT_EQ(resolution_label({"tcp-overlap", 0x25, 3}), "tcp-overlap:25");
}

}  // namespace
}  // namespace liberate::fingerprint
