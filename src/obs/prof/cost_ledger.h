// cost_ledger.h — per-phase attribution of the paper's scarce resources.
//
// The paper's unit of cost is the probe round (~75 rounds for a full
// characterization, 5 for the incremental readapt ladder). The ledger
// answers "where did my rounds go": a fixed phase × kind matrix of sharded
// counters, where the *phase* is ambient per-thread state (installed by
// CostLedger::PhaseScope, propagated across pool submissions by
// obs::TaskContextScope) and the *kind* is ticked at the few chokepoints
// that spend the resource — ReplayRunner::run for rounds, the scheduler's
// submission paths for probes, the evasion shim for mutated packets, and
// DpiEngine::run_match for match ops.
//
// Writers are relaxed sharded adds (shard.h); snapshot() merges exactly.
// Phase names are stable and exported in enum order, so snapshots of a
// deterministic run are themselves deterministic. Level-independent like
// every obs class; gating lives in the obs.h macros only.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/shard.h"

namespace liberate::obs {

enum class CostPhase : std::uint8_t {
  kUnattributed = 0,   // no phase scope open (startup, tests, misc)
  kDetection,          // analysis phase 1: differentiation detection
  kBlinding,           // blinding-oracle probes inside characterization
  kCharacterization,   // analysis phase 2 (minus blinding probes)
  kEvaluation,         // analysis phase 3: technique evaluation
  kReadapt,            // incremental readapt ladder (deploy)
  kFleet,              // live fleet waves (deploy)
  kCount_,
};

enum class CostKind : std::uint8_t {
  kRounds = 0,         // replay rounds executed
  kProbes,             // probe requests submitted to the scheduler
  kMutatedPackets,     // packets rewritten/injected by the evasion shim
  kMatchOps,           // DPI match invocations
  kCount_,
};

inline constexpr std::size_t kCostPhases =
    static_cast<std::size_t>(CostPhase::kCount_);
inline constexpr std::size_t kCostKinds =
    static_cast<std::size_t>(CostKind::kCount_);

inline const char* cost_phase_name(CostPhase p) {
  switch (p) {
    case CostPhase::kUnattributed: return "unattributed";
    case CostPhase::kDetection: return "detection";
    case CostPhase::kBlinding: return "blinding";
    case CostPhase::kCharacterization: return "characterization";
    case CostPhase::kEvaluation: return "evaluation";
    case CostPhase::kReadapt: return "readapt";
    case CostPhase::kFleet: return "fleet";
    case CostPhase::kCount_: break;
  }
  return "?";
}

inline const char* cost_kind_name(CostKind k) {
  switch (k) {
    case CostKind::kRounds: return "rounds";
    case CostKind::kProbes: return "probes";
    case CostKind::kMutatedPackets: return "mutated_packets";
    case CostKind::kMatchOps: return "match_ops";
    case CostKind::kCount_: break;
  }
  return "?";
}

/// Merged phase × kind totals; plain value, safe to serialize or diff.
struct CostLedgerSnapshot {
  std::array<std::array<std::uint64_t, kCostKinds>, kCostPhases> totals{};

  std::uint64_t at(CostPhase p, CostKind k) const {
    return totals[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)];
  }
  std::uint64_t kind_total(CostKind k) const {
    std::uint64_t sum = 0;
    for (const auto& row : totals) sum += row[static_cast<std::size_t>(k)];
    return sum;
  }
  std::uint64_t phase_total(CostPhase p) const {
    std::uint64_t sum = 0;
    for (std::uint64_t v : totals[static_cast<std::size_t>(p)]) sum += v;
    return sum;
  }
};

class CostLedger {
 public:
  static CostLedger& instance() {
    static CostLedger ledger;
    return ledger;
  }

  /// The calling thread's ambient phase. Nested scopes override (a full
  /// analysis launched from the readapt ladder attributes its rounds to
  /// its own detection/characterization/evaluation phases).
  static CostPhase& current_phase() {
    thread_local CostPhase t_phase = CostPhase::kUnattributed;
    return t_phase;
  }

  class PhaseScope {
   public:
    explicit PhaseScope(CostPhase phase) : saved_(current_phase()) {
      current_phase() = phase;
    }
    ~PhaseScope() { current_phase() = saved_; }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    CostPhase saved_;
  };

  void tick(CostKind kind, std::uint64_t n) {
    cells_[static_cast<std::size_t>(current_phase())]
          [static_cast<std::size_t>(kind)][shard_index()]
              .v.fetch_add(n, std::memory_order_relaxed);
  }

  CostLedgerSnapshot snapshot() const {
    CostLedgerSnapshot snap;
    for (std::size_t p = 0; p < kCostPhases; ++p) {
      for (std::size_t k = 0; k < kCostKinds; ++k) {
        std::uint64_t sum = 0;
        for (const ShardCell& c : cells_[p][k]) {
          sum += c.v.load(std::memory_order_relaxed);
        }
        snap.totals[p][k] = sum;
      }
    }
    return snap;
  }

  void reset() {
    for (auto& row : cells_) {
      for (auto& kinds : row) {
        for (ShardCell& c : kinds) c.v.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  CostLedger() = default;

  std::array<std::array<std::array<ShardCell, kShards>, kCostKinds>,
             kCostPhases>
      cells_{};
};

}  // namespace liberate::obs
