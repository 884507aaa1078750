// Probe engine tests: catalog shape and determinism, digest invariance
// across worker counts and match backends, and the profile × dimension
// discrimination matrix over every shipped DPI profile
// (docs/fingerprinting.md).
#include "fingerprint/probe.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "dpi/match_program.h"
#include "dpi/profiles.h"

namespace liberate::fingerprint {
namespace {

/// Every environment that carries a DPI middlebox (proxy-only and neutral
/// paths have nothing to fingerprint).
const std::vector<std::string> kDpiProfiles = {
    "testbed", "tmus",     "gfc",  "iran",
    "suricata", "zeek",    "ndpi", "conntrack-strict",
    "permissive"};

TEST(ProbeCatalog, IsDeterministicAndCoversEveryDimension) {
  const auto a = ambiguity_probe_catalog(1);
  const auto b = ambiguity_probe_catalog(1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;

  std::map<std::string, std::set<std::uint32_t>> variants;
  for (const ProbeScript& s : a) {
    EXPECT_FALSE(s.dimension.empty());
    EXPECT_FALSE(s.packets.empty()) << s.dimension;
    // Variants within a dimension must be unique or the digest bits collide.
    EXPECT_TRUE(variants[s.dimension].insert(s.variant).second)
        << s.dimension << "/" << s.variant;
  }
  EXPECT_EQ(a.size(), 19u);
  EXPECT_EQ(variants.size(), 10u);
}

TEST(ProbeEngine, DigestInvariantAcrossWorkersAndBackends) {
  const dpi::MatchBackend saved = dpi::match_backend();
  for (const std::string& name : kDpiProfiles) {
    dpi::set_match_backend(dpi::MatchBackend::kReference);
    const AmbiguityProbeResult baseline = probe_environment(name);
    EXPECT_EQ(baseline.probe_flows, 19u) << name;
    EXPECT_EQ(baseline.digest.dims.size(), 10u) << name;
    for (dpi::MatchBackend backend :
         {dpi::MatchBackend::kReference, dpi::MatchBackend::kCompiled}) {
      for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
        dpi::set_match_backend(backend);
        AmbiguityProbeOptions opts;
        opts.workers = workers;
        const AmbiguityProbeResult got = probe_environment(name, opts);
        EXPECT_EQ(got.digest, baseline.digest)
            << name << " workers=" << workers << " backend="
            << (backend == dpi::MatchBackend::kCompiled ? "compiled"
                                                        : "reference");
      }
    }
  }
  dpi::set_match_backend(saved);
}

TEST(ProbeEngine, DiscriminatesEveryShippedProfilePairwise) {
  std::vector<AmbiguityDigest> digests;
  std::set<std::string> hexes;
  for (const std::string& name : kDpiProfiles) {
    AmbiguityProbeResult r = probe_environment(name);
    hexes.insert(r.digest.fingerprint_hex());
    digests.push_back(std::move(r.digest));
  }
  // All fingerprints pairwise distinct.
  EXPECT_EQ(hexes.size(), kDpiProfiles.size());
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t j = i + 1; j < digests.size(); ++j) {
      EXPECT_GT(ambiguity_distance(digests[i], digests[j]), 0u)
          << kDpiProfiles[i] << " vs " << kDpiProfiles[j];
      // Every pair must disagree on at least one probed dimension — the
      // N × M matrix has no behaviourally identical rows.
      bool dim_differs = false;
      for (const DimensionResult& d : digests[i].dims) {
        const DimensionResult* o = digests[j].find(d.dimension);
        if (o != nullptr && o->bits != d.bits) dim_differs = true;
      }
      EXPECT_TRUE(dim_differs)
          << kDpiProfiles[i] << " vs " << kDpiProfiles[j];
    }
  }
}

TEST(ProbeEngine, ShippedProfileFingerprintsAreStable) {
  // Golden digests: the versioned fingerprint surface (ambiguity/v1). A
  // change here is a digest-format break — bump AmbiguityDigest::kFormat so
  // persisted caches invalidate instead of mis-matching.
  const std::map<std::string, std::string> kGolden = {
      {"testbed", "5d69fc5b847c62c7:ef7a7eabd391d0b2"},
      {"suricata", "4c210a72dfd7e32a:c9691d9b46763205"},
      {"zeek", "10e9d7b0f120794e:5d9ce55eea6ce216"},
      {"ndpi", "19dd803fb8ae4fd0:7a436f9ecd4ab0e8"},
      {"conntrack-strict", "213cdd272ea8cafe:05e1ef9dde65a25f"},
      {"permissive", "ddce92ebb40c5222:b436dd20852f2298"},
  };
  for (const auto& [name, hex] : kGolden) {
    EXPECT_EQ(probe_environment(name).digest.fingerprint_hex(), hex) << name;
  }
}

}  // namespace
}  // namespace liberate::fingerprint
