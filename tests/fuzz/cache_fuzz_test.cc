// Cache-loader fuzz smoke. The fingerprint cache JSON is the §4.2 sharing
// format, so its bytes arrive from other users. A checked-in real cache
// document (tests/fuzz/corpus/cache) is mutated from a seed — truncations,
// byte substitutions, hex-digit flips, hostile numbers, duplicated and
// missing members — and ClassifierFingerprintCache::from_json must either
// reject the result or return a cache whose to_json re-loads to the same
// bytes and whose every entry still hashes to its digest. Locally a few
// hundred iterations; CI raises LIBERATE_FUZZ_ITERATIONS to 10000 under
// ASan/UBSan. A failure names the iteration seed; mutate(document, seed)
// rebuilds the exact input.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "deploy/fingerprint.h"
#include "fuzz/fuzz.h"
#include "util/json_parse.h"
#include "util/rng.h"

namespace liberate::deploy {
namespace {

constexpr std::uint64_t kCacheBaseSeed = 0xCAC4E;
constexpr const char* kCorpusFile =
    LIBERATE_FUZZ_CORPUS_DIR "/cache/shared_cache.json";

std::string corpus_document() {
  std::ifstream in(kCorpusFile, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---- a tolerant scanner over (possibly already mutated) JSON text ----

bool is_hex_digit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

// One past the string starting at the quote at `pos` (doc.size() when
// unterminated).
std::size_t string_end(const std::string& doc, std::size_t pos) {
  for (std::size_t i = pos + 1; i < doc.size(); ++i) {
    if (doc[i] == '\\') {
      ++i;
    } else if (doc[i] == '"') {
      return i + 1;
    }
  }
  return doc.size();
}

// One past the value starting at `pos`: a string, a bracketed container
// (strings inside skipped), or a bare scalar up to the next delimiter.
std::size_t value_end(const std::string& doc, std::size_t pos) {
  if (pos >= doc.size()) return doc.size();
  if (doc[pos] == '"') return string_end(doc, pos);
  if (doc[pos] == '{' || doc[pos] == '[') {
    int depth = 0;
    for (std::size_t i = pos; i < doc.size(); ++i) {
      if (doc[i] == '"') {
        i = string_end(doc, i) - 1;
      } else if (doc[i] == '{' || doc[i] == '[') {
        ++depth;
      } else if ((doc[i] == '}' || doc[i] == ']') && --depth == 0) {
        return i + 1;
      }
    }
    return doc.size();
  }
  std::size_t i = pos;
  while (i < doc.size() && doc[i] != ',' && doc[i] != '}' && doc[i] != ']') {
    ++i;
  }
  return i;
}

struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// Spans of the document's tokens: object members (`"key":value`), bare
// numbers, and hex digits inside strings.
struct Tokens {
  std::vector<Span> members;
  std::vector<Span> numbers;
  std::vector<std::size_t> hex_digits;
};

Tokens scan(const std::string& doc) {
  Tokens t;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (c == '"') {
      const std::size_t end = string_end(doc, i);
      for (std::size_t k = i + 1; k + 1 < end; ++k) {
        if (is_hex_digit(doc[k])) t.hex_digits.push_back(k);
      }
      if (end < doc.size() && doc[end] == ':') {
        t.members.push_back({i, value_end(doc, end + 1)});
      }
      i = end - 1;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      const std::size_t end = value_end(doc, i);
      t.numbers.push_back({i, end});
      i = end - 1;
    }
  }
  return t;
}

// ---- mutations ----

enum Mutation {
  kTruncate,
  kSubstitute,
  kHexFlip,
  kHostileNumber,
  kDuplicateMember,
  kDropMember,
  kMutationKinds,
};

using MutationCounts = std::array<std::uint64_t, kMutationKinds>;

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.below(v.size())];
}

// Applies one mutation of a random kind; returns the kind, or kMutationKinds
// when the document had nothing that kind could target.
Mutation mutate_once(std::string& doc, Rng& rng) {
  const auto kind = static_cast<Mutation>(rng.below(kMutationKinds));
  const Tokens t = scan(doc);
  switch (kind) {
    case kTruncate:
      if (doc.empty()) break;
      doc.resize(rng.below(doc.size()));
      return kind;
    case kSubstitute: {
      if (doc.empty()) break;
      static const std::string kJsonish = "{}[]\":,-+.eE0123456789aftrnul\\ ";
      const std::uint64_t n = 1 + rng.below(3);
      for (std::uint64_t k = 0; k < n; ++k) {
        doc[rng.below(doc.size())] =
            rng.chance(0.5) ? static_cast<char>(rng.byte())
                            : kJsonish[rng.below(kJsonish.size())];
      }
      return kind;
    }
    case kHexFlip: {
      if (t.hex_digits.empty()) break;
      static const std::string kHex = "0123456789abcdef";
      const std::size_t at = pick(rng, t.hex_digits);
      const std::size_t old = kHex.find(doc[at]);
      doc[at] = kHex[(old + 1 + rng.below(15)) % 16];  // never the same digit
      return kind;
    }
    case kHostileNumber: {
      if (t.numbers.empty()) break;
      static const std::vector<std::string> kHostile = {
          "1e300", "-1", "18446744073709551616", "1e999",
          "-1e999", "4294967296", "2.5", "-0"};
      const Span s = pick(rng, t.numbers);
      doc.replace(s.begin, s.end - s.begin, pick(rng, kHostile));
      return kind;
    }
    case kDuplicateMember: {
      if (t.members.empty()) break;
      const Span s = pick(rng, t.members);
      doc.insert(s.end, "," + doc.substr(s.begin, s.end - s.begin));
      return kind;
    }
    case kDropMember: {
      if (t.members.empty()) break;
      Span s = pick(rng, t.members);
      if (s.end < doc.size() && doc[s.end] == ',') {
        ++s.end;
      } else if (s.begin > 0 && doc[s.begin - 1] == ',') {
        --s.begin;
      }
      doc.erase(s.begin, s.end - s.begin);
      return kind;
    }
    case kMutationKinds:
      break;
  }
  return kMutationKinds;
}

// One to three stacked mutations, all drawn from `seed`.
std::string mutate(std::string doc, std::uint64_t seed,
                   MutationCounts* counts = nullptr) {
  Rng rng(seed);
  const std::uint64_t n = 1 + rng.below(3);
  for (std::uint64_t k = 0; k < n; ++k) {
    const Mutation m = mutate_once(doc, rng);
    if (counts != nullptr && m != kMutationKinds) ++(*counts)[m];
  }
  return doc;
}

// ---- the property ----

struct LoadStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t entries_checked = 0;
};

::testing::AssertionResult rejects_or_loads_cleanly(std::string_view text,
                                                     LoadStats& stats) {
  const auto cache = ClassifierFingerprintCache::from_json(text);
  if (!cache) {
    ++stats.rejected;
    return ::testing::AssertionSuccess();
  }
  ++stats.accepted;
  const std::string once = cache->to_json();
  const auto again = ClassifierFingerprintCache::from_json(once);
  if (!again) {
    return ::testing::AssertionFailure() << "to_json output does not load";
  }
  if (const std::string twice = again->to_json(); twice != once) {
    std::size_t at = 0;
    while (at < once.size() && at < twice.size() && once[at] == twice[at]) {
      ++at;
    }
    const std::size_t from = at < 40 ? 0 : at - 40;
    return ::testing::AssertionFailure()
           << "to_json is not stable at byte " << at << ": ..."
           << once.substr(from, 80) << " vs ..." << twice.substr(from, 80);
  }
  // The cache has no iterator; its own serialization names every entry.
  const auto doc = parse_json(once);
  const JsonValue* entries = doc ? doc->find("entries") : nullptr;
  if (entries == nullptr || entries->array.size() != cache->size()) {
    return ::testing::AssertionFailure() << "to_json lost entries";
  }
  for (const JsonValue& e : entries->array) {
    const CachedCharacterization* entry =
        cache->lookup(e.find("environment")->string, e.find("app")->string);
    if (entry == nullptr) {
      return ::testing::AssertionFailure() << "entry vanished on lookup";
    }
    if (characterization_digest(entry->characterization()) != entry->digest) {
      return ::testing::AssertionFailure()
             << entry->environment << "/" << entry->app
             << " does not hash to its digest";
    }
    ++stats.entries_checked;
  }
  return ::testing::AssertionSuccess();
}

TEST(FuzzCacheCorpus, DocumentIsARealCacheForEveryNetwork) {
  const std::string document = corpus_document();
  ASSERT_FALSE(document.empty()) << "no corpus at " << kCorpusFile;
  const auto cache = ClassifierFingerprintCache::from_json(document);
  ASSERT_TRUE(cache.has_value());
  // Canonical form: the file is exactly what to_json writes.
  EXPECT_EQ(cache->to_json(), document);
  const auto doc = parse_json(document);
  ASSERT_TRUE(doc.has_value());
  std::set<std::string> environments;
  std::size_t with_ambiguity = 0;
  for (const JsonValue& e : doc->find("entries")->array) {
    const CachedCharacterization* entry =
        cache->lookup(e.find("environment")->string, e.find("app")->string);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->fields.empty()) << entry->environment;
    EXPECT_FALSE(entry->ranking.empty()) << entry->environment;
    environments.insert(entry->environment);
    if (entry->ambiguity) ++with_ambiguity;
  }
  EXPECT_EQ(environments,
            (std::set<std::string>{"gfc", "iran", "testbed", "tmus"}));
  EXPECT_EQ(cache->size(), 4u);
  EXPECT_EQ(with_ambiguity, 1u);
}

TEST(FuzzSmokeCache, EveryTruncationIsHandled) {
  const std::string document = corpus_document();
  ASSERT_FALSE(document.empty()) << "no corpus at " << kCorpusFile;
  LoadStats stats;
  for (std::size_t n = 0; n < document.size(); ++n) {
    ASSERT_TRUE(rejects_or_loads_cleanly(
        std::string_view(document.data(), n), stats))
        << "prefix of " << n << " bytes";
  }
  // A proper prefix never closes the top-level object.
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.rejected, document.size());
}

TEST(FuzzSmokeCache, CampaignRunsCleanAndCoversEveryMutation) {
  const std::string document = corpus_document();
  ASSERT_FALSE(document.empty()) << "no corpus at " << kCorpusFile;
  const std::uint64_t iterations = fuzz::campaign_iterations(400);
  LoadStats stats;
  MutationCounts counts{};
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed = fuzz::iteration_seed(kCacheBaseSeed, i);
    ASSERT_TRUE(
        rejects_or_loads_cleanly(mutate(document, seed, &counts), stats))
        << "repro: from_json(mutate(corpus_document(), 0x" << std::hex << seed
        << "ULL))";
  }
  EXPECT_EQ(stats.accepted + stats.rejected, iterations);
  // Coverage telemetry: every mutation kind ran, and the campaign reached
  // both verdicts — a campaign that only ever rejects tests nothing.
  for (std::size_t k = 0; k < kMutationKinds; ++k) {
    EXPECT_GT(counts[k], 0u) << "mutation kind " << k << " never applied";
  }
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_GT(stats.entries_checked, stats.accepted);
}

}  // namespace
}  // namespace liberate::deploy
