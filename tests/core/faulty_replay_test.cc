// FaultyLink × parallel replay: the ISSUE-4 contract that fault injection
// composes with the round scheduler without breaking determinism. With
// WorldSpec::faults set, every isolated round gets a FaultyLink seeded from
// (seed, round fingerprint) — so outcomes must stay byte-identical across
// worker counts, the fault policy must be part of round identity (no memo
// bleed between faulted and clean worlds), and checksum-preserving chaos
// must not stop the replay pipeline from reaching verdicts.
#include <gtest/gtest.h>

#include <string>

#include "core/detection.h"
#include "core/round_scheduler.h"
#include "netsim/faulty.h"
#include "trace/generators.h"

namespace liberate::core {
namespace {

WorldSpec faulted_spec(std::uint64_t seed) {
  WorldSpec spec;
  spec.environment = "testbed";
  spec.seed = seed;
  spec.faults = netsim::FaultPolicy::reorder_heavy();
  return spec;
}

std::string summarize(const RoundResult& r) {
  return std::to_string(r.differentiated) + ":" +
         std::to_string(r.outcome.completed) + ":" +
         std::to_string(r.outcome.payload_intact) + ":" +
         std::to_string(r.outcome.rsts_at_client) + ":" +
         std::to_string(r.virtual_seconds);
}

TEST(FaultyReplay, IsolatedFaultedRoundIsBitwiseRepeatable) {
  WorldSpec spec = faulted_spec(21);
  RoundRequest req;
  req.trace = trace::amazon_video_trace(8 * 1024);
  RoundResult a = run_isolated_round(spec, req);
  RoundResult b = run_isolated_round(spec, req);
  EXPECT_EQ(summarize(a), summarize(b));
  EXPECT_EQ(a.outcome.goodput_mbps, b.outcome.goodput_mbps);
  EXPECT_EQ(a.bytes_offered, b.bytes_offered);
}

TEST(FaultyReplay, FaultPolicyIsPartOfRoundIdentity) {
  WorldSpec clean;
  clean.environment = "testbed";
  clean.seed = 21;
  WorldSpec faulted = faulted_spec(21);
  WorldSpec faultier = faulted;
  faultier.faults.loss = 0.5;

  RoundRequest req;
  req.trace = trace::facebook_trace();
  Fingerprint f_clean = round_fingerprint(clean, req);
  Fingerprint f_faulted = round_fingerprint(faulted, req);
  Fingerprint f_faultier = round_fingerprint(faultier, req);
  EXPECT_NE(f_clean, f_faulted);
  EXPECT_NE(f_faulted, f_faultier);
  EXPECT_EQ(f_faulted, round_fingerprint(faulted_spec(21), req));
}

TEST(FaultyReplay, ChaosActuallyPerturbsTheRound) {
  // Same request, faulted vs clean world: the loss/reorder chaos must leave
  // a measurable trace (more virtual time spent on retransmission, at the
  // very least a different timing profile), or the link isn't wired in.
  RoundRequest req;
  req.trace = trace::amazon_video_trace(32 * 1024);
  WorldSpec clean;
  clean.environment = "testbed";
  clean.seed = 21;
  RoundResult clean_r = run_isolated_round(clean, req);
  RoundResult faulted_r = run_isolated_round(faulted_spec(21), req);
  EXPECT_TRUE(clean_r.outcome.completed);
  EXPECT_TRUE(faulted_r.outcome.completed);  // TCP rides out the chaos
  EXPECT_NE(clean_r.virtual_seconds, faulted_r.virtual_seconds);
}

TEST(FaultyReplay, FaultedPipelineIdenticalAcrossWorkerCounts) {
  // The acceptance bar: full detection pipeline over a hostile link, serial
  // vs 2 vs 8 workers, identical verdicts and round counts.
  const auto trace = trace::amazon_video_trace(8 * 1024);
  WorldSpec spec = faulted_spec(42);

  RoundScheduler serial(spec, {.workers = 0});
  DetectionResult reference = detect_differentiation(serial, trace);
  EXPECT_TRUE(reference.differentiation);  // chaos must not blind detection

  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    RoundScheduler scheduler(spec, {.workers = workers});
    DetectionResult got = detect_differentiation(scheduler, trace);
    EXPECT_EQ(got.differentiation, reference.differentiation)
        << "workers=" << workers;
    EXPECT_EQ(got.content_based, reference.content_based)
        << "workers=" << workers;
    EXPECT_EQ(got.rounds, reference.rounds) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace liberate::core
