// faulty.h — the fault-injection path element.
//
// FaultyLink models benign path imperfection (a policy with only `loss` or
// `max_jitter` set) and an actively hostile or badly broken segment alike:
// policy-driven loss, duplication, truncation, bit corruption, reordering
// and jitter, all drawn from one explicitly seeded Rng. A fault whose
// probability is zero draws nothing, so a single-fault policy spends
// exactly one draw per packet. Because every draw happens in packet
// arrival order on the deterministic event loop, the same seed produces the
// same fault sequence — and therefore the same delivered byte stream — on
// every run and under any worker count (each parallel replay round owns an
// isolated world). The fuzz harness (tests/fuzz) and the robustness tests
// drive flows through this element; core replay picks it up via
// WorldSpec::faults.
#pragma once

#include <algorithm>
#include <string>

#include "netsim/network.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace liberate::netsim {

/// Per-packet fault probabilities (each applied independently, in the order
/// listed) plus their parameters. Defaults are all-off; `any()` gates
/// whether a link is worth inserting at all.
struct FaultPolicy {
  double loss = 0;        // drop the packet outright
  double duplicate = 0;   // forward a second, identical copy
  double truncate = 0;    // cut the tail: keep a random prefix (>= 1 byte)
  double corrupt = 0;     // flip 1..corrupt_max_bits random bits
  int corrupt_max_bits = 4;
  double reorder = 0;     // hold the packet back by reorder_hold
  Duration reorder_hold = milliseconds(5);
  Duration max_jitter = 0;  // uniform extra delay in [0, max_jitter]

  bool any() const {
    return loss > 0 || duplicate > 0 || truncate > 0 || corrupt > 0 ||
           reorder > 0 || max_jitter > 0;
  }

  /// Checksum-preserving chaos: nothing that alters bytes, so TCP integrity
  /// assertions stay exact while delivery order and timing go hostile.
  static FaultPolicy reorder_heavy() {
    FaultPolicy p;
    p.loss = 0.03;
    p.duplicate = 0.05;
    p.reorder = 0.2;
    p.max_jitter = milliseconds(10);
    return p;
  }
  /// Byte-mangling chaos: truncation and bit flips on top of the above —
  /// parsers and checksum validation are the targets.
  static FaultPolicy adversarial() {
    FaultPolicy p = reorder_heavy();
    p.truncate = 0.05;
    p.corrupt = 0.05;
    return p;
  }
};

class FaultyLink : public PathElement {
 public:
  FaultyLink(FaultPolicy policy, std::uint64_t seed)
      : policy_(policy), rng_(seed) {}

  void process(Bytes datagram, Direction dir, ElementIo& io) override {
    (void)dir;
    ++seen_;
    if (policy_.loss > 0 && rng_.chance(policy_.loss)) {
      ++dropped_;
      LIBERATE_COUNTER_ADD("netsim.faulty.dropped", 1);
      return;
    }
    if (policy_.duplicate > 0 && rng_.chance(policy_.duplicate)) {
      ++duplicated_;
      LIBERATE_COUNTER_ADD("netsim.faulty.duplicated", 1);
      io.forward(datagram);  // copy; the (possibly mutated) original follows
    }
    if (policy_.truncate > 0 && datagram.size() > 1 &&
        rng_.chance(policy_.truncate)) {
      ++truncated_;
      LIBERATE_COUNTER_ADD("netsim.faulty.truncated", 1);
      datagram.resize(1 + static_cast<std::size_t>(
                              rng_.below(datagram.size() - 1)));
    }
    if (policy_.corrupt > 0 && !datagram.empty() &&
        rng_.chance(policy_.corrupt)) {
      ++corrupted_;
      LIBERATE_COUNTER_ADD("netsim.faulty.corrupted", 1);
      int flips = 1 + static_cast<int>(rng_.below(
                          static_cast<std::uint64_t>(
                              std::max(1, policy_.corrupt_max_bits))));
      for (int i = 0; i < flips; ++i) {
        datagram[rng_.below(datagram.size())] ^=
            static_cast<std::uint8_t>(1u << rng_.below(8));
      }
    }
    Duration delay = 0;
    if (policy_.reorder > 0 && rng_.chance(policy_.reorder)) {
      ++reordered_;
      LIBERATE_COUNTER_ADD("netsim.faulty.reordered", 1);
      delay += policy_.reorder_hold;
    }
    if (policy_.max_jitter > 0) {
      delay += rng_.below(policy_.max_jitter + 1);
    }
    if (delay > 0) {
      io.forward_after(delay, std::move(datagram));
    } else {
      io.forward(std::move(datagram));
    }
  }

  std::string name() const override { return "faulty"; }

  std::uint64_t seen() const { return seen_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t truncated() const { return truncated_; }
  std::uint64_t corrupted() const { return corrupted_; }
  std::uint64_t reordered() const { return reordered_; }

 private:
  FaultPolicy policy_;
  Rng rng_;
  std::uint64_t seen_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t truncated_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace liberate::netsim
