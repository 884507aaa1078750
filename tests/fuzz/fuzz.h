// fuzz.h — deterministic, seed-driven fuzz harness for the wire stack.
//
// lib·erate's evasion techniques ARE hostile wire input (overlapping
// fragments, inert low-TTL packets, wrap-adjacent segments), so the codecs
// and the stateful stack must survive exactly what our own shim generates —
// and worse. This harness is test code (built from tests/ as liberate_fuzz)
// and drives three campaigns:
//
//   codec:    parse → mutate → serialize round trips over the IPv4/TCP/UDP/
//             ICMP wire codecs and the STUN/TLS/HTTP application parsers,
//             over junk, structured-random and mutated inputs.
//   stateful: adversarial fragment streams through IpReassembler and
//             adversarial segment streams through a live TcpConnection
//             (wrap-adjacent ISNs, overlaps, floods, invalid flag combos).
//   match:    differential fuzzing of the compiled rule matcher
//             (dpi/match_program.h) against the reference linear matcher —
//             randomized rule sets × adversarial contents × contexts, every
//             verdict and trace byte-compared.
//
// Everything an iteration does is a pure function of one std::uint64_t seed
// (util/rng.h xoshiro), so any failure is a one-line repro:
//
//   liberate::fuzz::run_codec_iteration(0xDEADBEEF, stats);
//
// Campaign drivers derive per-iteration seeds via iteration_seed() and
// report the failing seed through the FuzzStats the caller inspects; the
// gtest wrappers next to this header print it. CI runs the campaigns under
// ASan/UBSan with LIBERATE_FUZZ_ITERATIONS=10000 (see
// .github/workflows/ci.yml and docs/robustness.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace liberate::fuzz {

/// Aggregated campaign observations. `roundtrip_mismatches` is the only
/// correctness field — it must stay 0; the rest are coverage telemetry so a
/// campaign that silently stopped exercising a path is visible.
struct FuzzStats {
  std::uint64_t iterations = 0;
  std::uint64_t inputs = 0;             // byte buffers pushed through parsers
  std::uint64_t parsed_packets = 0;     // inputs parse_packet accepted
  std::uint64_t roundtrips_checked = 0; // serialize→parse identities verified
  std::uint64_t roundtrip_mismatches = 0;  // MUST be 0
  std::uint64_t datagrams_reassembled = 0;
  std::uint64_t fragments_pushed = 0;
  std::uint64_t segments_injected = 0;
  std::uint64_t stream_bytes_delivered = 0;
  // Match-program campaign. `match_divergences` is a correctness field like
  // roundtrip_mismatches — any nonzero count is a compiled-matcher bug.
  std::uint64_t match_programs_compiled = 0;
  std::uint64_t match_fallback_programs = 0;  // node-budget fallback taken
  std::uint64_t match_cases_checked = 0;      // (rules, content, ctx) triples
  std::uint64_t match_divergences = 0;        // MUST be 0
  /// Seed of the first iteration that recorded a mismatch (repro handle).
  std::uint64_t first_failure_seed = 0;

  void merge(const FuzzStats& o);
};

/// Seed for iteration `index` of a campaign based at `base_seed`
/// (splitmix64 — statistically independent streams per iteration).
std::uint64_t iteration_seed(std::uint64_t base_seed, std::uint64_t index);

/// Iterations a campaign test runs: LIBERATE_FUZZ_ITERATIONS when it is set
/// to a positive number (CI's fuzz-smoke job sets 10000), else `fallback`.
std::uint64_t campaign_iterations(std::uint64_t fallback);

/// One deterministic codec iteration.
void run_codec_iteration(std::uint64_t seed, FuzzStats& stats);
/// One deterministic stateful (reassembly + TCP endpoint) iteration.
void run_stateful_iteration(std::uint64_t seed, FuzzStats& stats);
/// One deterministic match-program differential iteration: a randomized rule
/// set is compiled once and checked against the reference matcher on a batch
/// of adversarial contents/contexts (anchors at offsets 0/±1, case flips,
/// keyword overlaps, STUN payloads, empty contents). Every RuleHit and
/// RuleStep/ContentTrace sequence must be byte-identical.
void run_match_program_iteration(std::uint64_t seed, FuzzStats& stats);

/// Campaign drivers: `iterations` iterations from `base_seed`.
FuzzStats run_codec_campaign(std::uint64_t base_seed,
                             std::uint64_t iterations);
FuzzStats run_stateful_campaign(std::uint64_t base_seed,
                                std::uint64_t iterations);
FuzzStats run_match_program_campaign(std::uint64_t base_seed,
                                     std::uint64_t iterations);

/// A checked-in interesting input (tests/fuzz/corpus): `name` is the file
/// name, `data` the decoded bytes.
struct CorpusEntry {
  std::string name;
  Bytes data;
};

/// Load every corpus file under `dir` (hex encoding: whitespace ignored,
/// '#' starts a comment to end of line), sorted by file name.
std::vector<CorpusEntry> load_corpus(const std::string& dir);

/// Drive one input through every parser and the reassembler (the corpus
/// replay path; also used internally by the codec campaign).
void run_corpus_entry(BytesView input, FuzzStats& stats);

/// Replay one match-campaign corpus content (tests/fuzz/corpus/match)
/// against a fixed tricky rule set under a matrix of contexts, comparing
/// compiled vs reference on each.
void run_match_corpus_entry(BytesView content, FuzzStats& stats);

}  // namespace liberate::fuzz
