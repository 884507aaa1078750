// match_program.h — compiled rule-matching programs.
//
// The reference matcher (match_rules_reference_traced) evaluates every rule
// independently: it copies the inspected content into a std::string and runs
// a naive case-insensitive substring scan per keyword, per rule, per packet.
// Stream-mode classifiers re-match a growing reassembled prefix on every
// payload packet, so that quadratic-ish inner loop dominates replay rounds.
//
// A MatchProgram lowers one rule set ONCE into a flat decision program:
//
//   * guard ops — the transport/port/packet-index constraints of each rule,
//     precomputed into plain fields checked before any content work;
//   * a shared keyword automaton — every distinct keyword of every rule is
//     inserted (case-folded) into one Aho-Corasick automaton, fully
//     goto-converted over a dense reduced alphabet, so a single left-to-right
//     pass over the content yields the FIRST occurrence offset of every
//     keyword simultaneously (the exact value ifind() would have returned);
//   * a first-byte dispatch table — anchored rules can only match content
//     whose first (folded) byte equals their first keyword's first byte, so
//     verdict-only evaluation skips the content scan entirely when no
//     eligible rule survives dispatch;
//   * STUN guard ops — rules requiring a STUN attribute share one lazy parse
//     of the content per evaluation.
//
// Equivalence contract: for every (rules, content, ctx), run() returns the
// same RuleHit and emits byte-identical RuleStep sequences and ContentTrace
// offsets as match_rules_reference_traced(). The reference matcher is kept
// forever as the differential oracle (tests/dpi/match_program_diff_test.cc,
// tests/fuzz match-program campaign); docs/match_program.md spells out the
// contract.
//
// Programs are immutable after compile() and safe to share across threads
// and engines — compile_cached() memoizes them by rule-set content
// fingerprint, so the thousands of isolated worlds a parallel analysis
// builds (and every FleetEngine shard) reuse one program per profile
// instead of recompiling. Per-evaluation mutable state lives in a
// caller-owned Scratch.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dpi/rules.h"
#include "util/digest.h"

namespace liberate::dpi {

/// Which matcher implementation DpiEngine::run_match uses. Process-global so
/// determinism suites can run entire analyses under either backend and
/// compare reports; defaults to the compiled program.
enum class MatchBackend { kCompiled, kReference };
void set_match_backend(MatchBackend backend);
MatchBackend match_backend();

class MatchProgram {
 public:
  /// Reusable per-evaluation state (first-occurrence table + epoch stamps),
  /// owned by the caller (one per DpiEngine) so repeated evaluations do not
  /// allocate. A Scratch may be shared across programs — it resizes to the
  /// pattern count of whichever program runs.
  struct Scratch {
    std::vector<std::size_t> first_at;  // per pattern id; valid iff stamped
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
  };

  /// Lower a rule set into a program. Never fails: rule sets exceeding the
  /// automaton node budget produce a program with compiled()==false whose
  /// run() transparently delegates to the reference matcher.
  static MatchProgram compile(const std::vector<MatchRule>& rules);

  /// Memoized compile, keyed by a content fingerprint of the rule set.
  /// Identical rule sets (across rounds, engines, fleet shards) share one
  /// immutable program.
  static std::shared_ptr<const MatchProgram> compile_cached(
      const std::vector<MatchRule>& rules);

  /// Evaluate the program. `rules` MUST be the vector the program was
  /// compiled from (same size and order — RuleHit/RuleStep point into it).
  /// Byte-identical to match_rules_reference_traced(rules, content, ctx,
  /// steps).
  RuleHit run(const std::vector<MatchRule>& rules, BytesView content,
              const RuleContext& ctx, std::vector<RuleStep>* steps,
              Scratch& scratch) const;

  /// False when the rule set exceeded the automaton budget and run()
  /// delegates to the reference matcher.
  bool compiled() const { return !fallback_; }
  std::size_t node_count() const { return node_out_start_.size(); }
  /// Content fingerprint of the source rule set (the compile-cache key).
  const Fingerprint& fingerprint() const { return fingerprint_; }

 private:
  static constexpr std::int32_t kEmptyPattern = -1;  // ifind("") == 0 always
  static constexpr std::size_t kNodeBudget = 4096;

  struct CompiledRule {
    bool udp = false;
    bool anchored = false;
    bool has_dst_port = false;
    std::uint16_t dst_port = 0;
    bool has_packet_index = false;
    std::size_t only_packet_index = 0;
    bool has_stun = false;
    std::uint16_t stun_attribute = 0;
    /// Per keyword: pattern id into the automaton, or kEmptyPattern.
    std::vector<std::int32_t> kw_pattern;
    /// First folded byte of the first keyword (anchored dispatch), or -1
    /// when the rule has no usable anchor byte (empty first keyword).
    std::int32_t anchor_byte = -1;
  };

  /// One automaton pass: records the first occurrence of every pattern into
  /// scratch (epoch-stamped), stopping early once all patterns are seen.
  void scan(BytesView content, Scratch& scratch) const;

  std::vector<CompiledRule> rules_;
  Fingerprint fingerprint_{};
  bool fallback_ = false;

  // --- shared keyword automaton (fully goto-converted Aho-Corasick) ---
  // Reduced alphabet: alpha_[byte] maps a raw content byte to a dense
  // column; bytes appearing in no pattern share column 0, whose transition
  // is the root from every node. Case folding is baked into the map
  // (alpha_['A'] == alpha_['a']), mirroring ifind()'s ASCII-only fold.
  std::array<std::uint16_t, 256> alpha_{};
  std::uint32_t alpha_width_ = 1;
  std::vector<std::uint32_t> next_;           // [node * alpha_width_ + col]
  std::vector<std::uint32_t> node_out_start_;  // per node, into out_pool_
  std::vector<std::uint32_t> node_out_count_;
  std::vector<std::uint32_t> out_pool_;        // flattened pattern-id lists
  std::vector<std::size_t> pattern_len_;

  // --- first-byte dispatch ---
  // dispatch_[b]: some anchored rule's first keyword starts with folded b.
  std::array<bool, 256> dispatch_{};
  /// True when some rule can match content without an anchor-byte
  /// constraint (unanchored keyword rules, empty-first-keyword rules) — if
  /// false and no dispatch bit is set for content[0], verdict-only
  /// evaluation skips the scan.
  bool has_unanchored_content_ = false;
};

}  // namespace liberate::dpi
