// Provenance sampling: a scope that samples 1 flow in N must record exactly
// what an unsampled (1-in-1) scope records for the flows it keeps, and
// nothing at all for the others. The script goes through the
// instrumentation macros, which is where the sampling decision lives, so
// this TU pins the level to 2 whatever the build-wide setting (the same
// per-TU override obs_noop_test uses for level 0).
#undef LIBERATE_OBS_LEVEL
#define LIBERATE_OBS_LEVEL 2

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace liberate::obs::prov {
namespace {

constexpr std::uint64_t kScope = 0x5A4D;
constexpr std::uint64_t kEvery = 64;
constexpr std::uint16_t kFlows = 1024;

/// Minimal IPv4 datagram: TCP ports (to 443) and one payload byte `tag`
/// follow the 20-byte header; `frag_offset` marks a non-first fragment,
/// whose ports flow_key_of does not read.
Bytes datagram(std::uint16_t flow, std::uint8_t tag,
               std::uint16_t frag_offset = 0) {
  Bytes d(25, 0);
  d[0] = 0x45;
  d[6] = static_cast<std::uint8_t>(frag_offset >> 8);
  d[7] = static_cast<std::uint8_t>(frag_offset);
  d[9] = 6;
  const std::uint32_t src = 0x0a010000u + flow;  // 10.1.x.x clients
  const std::uint32_t dst = 0xc6336414u;         // 198.51.100.20
  for (int i = 0; i < 4; ++i) {
    d[12 + i] = static_cast<std::uint8_t>(src >> (24 - 8 * i));
    d[16 + i] = static_cast<std::uint8_t>(dst >> (24 - 8 * i));
  }
  const std::uint16_t sport = static_cast<std::uint16_t>(30000 + flow);
  d[20] = static_cast<std::uint8_t>(sport >> 8);
  d[21] = static_cast<std::uint8_t>(sport);
  d[22] = 0x01;
  d[23] = 0xbb;
  d[24] = tag;
  return d;
}

FlowKey key_of(std::uint16_t flow) { return flow_key_of(datagram(flow, 0)); }

/// One scripted session: per flow a SYN, a payload packet split into a
/// first piece and a port-less fragment, and DPI-style notes by key and by
/// packet. Everything goes through the LIBERATE_PROV_* macros.
void record_script() {
  for (std::uint16_t f = 0; f < kFlows; ++f) {
    const std::uint64_t ts = std::uint64_t{f} * 10;
    const Bytes syn = datagram(f, 0);
    const Bytes data = datagram(f, 1);
    const Bytes head = datagram(f, 2);
    const Bytes tail = datagram(f, 3, /*frag_offset=*/1);
    LIBERATE_PROV_PACKET(syn, "tcp");
    LIBERATE_PROV_PACKET(data, "tcp");
    LIBERATE_PROV_EDGE(ts, data, head, "ip-fragment", "script");
    LIBERATE_PROV_EDGE(ts, data, tail, "ip-fragment", "script");
    LIBERATE_PROV_NOTE(ts + 1, key_of(f), "rules-evaluated",
                       fv("tried", std::uint64_t{f}),
                       fv("outcome", "no-match"));
    LIBERATE_PROV_NOTE_PKT(ts + 2, head, "verdict", fv("class", "video"));
    LIBERATE_PROV_NOTE(ts + 3, key_of(f), "dpi-flush", fv("trigger", "rst"));
  }
}

/// Every node id the script can register for flow `f`.
std::set<std::uint64_t> ids_of(std::uint16_t f) {
  return {packet_id(datagram(f, 0)), packet_id(datagram(f, 1)),
          packet_id(datagram(f, 2)), packet_id(datagram(f, 3, 1))};
}

std::string render(const NodeInfo& n) {
  return id_hex(n.id) + " " + std::to_string(n.size) + " " + n.kind;
}
std::string render(const EdgeInfo& e) {
  return id_hex(e.child) + "<-" + id_hex(e.parent) + " @" +
         std::to_string(e.ts_us) + " " + e.kind + " " + e.actor + " " +
         e.detail;
}
std::string render(const LedgerSnapshot& l) {
  std::string out = std::to_string(l.scope) + " " + l.flow.to_string() +
                    " total=" + std::to_string(l.total) +
                    " dropped=" + std::to_string(l.dropped);
  for (const ProvRecord& r : l.records) {
    out += "\n  " + std::to_string(r.ts_us) + " #" + std::to_string(r.seq) +
           " " + r.kind + " pkt=" + id_hex(r.pkt);
    for (const EventField& field : r.fields) {
      out += " " + field.key + "=" + field.value;
    }
  }
  return out;
}

/// The parts of the snapshot that belong to `flows`, rendered.
std::vector<std::string> render(const ProvSnapshot& snap,
                                const std::set<std::uint16_t>& flows) {
  std::set<std::uint64_t> ids;
  std::set<FlowKey> keys;
  for (std::uint16_t f : flows) {
    const auto f_ids = ids_of(f);
    ids.insert(f_ids.begin(), f_ids.end());
    keys.insert(key_of(f));
  }
  std::vector<std::string> out;
  for (const NodeInfo& n : snap.nodes) {
    if (ids.count(n.id) != 0) out.push_back(render(n));
  }
  for (const EdgeInfo& e : snap.edges) {
    if (ids.count(e.child) != 0) out.push_back(render(e));
  }
  for (const LedgerSnapshot& l : snap.ledgers) {
    if (keys.count(l.flow) != 0) out.push_back(render(l));
  }
  return out;
}

class ProvenanceSampling : public ::testing::Test {
 protected:
  void SetUp() override { ProvenanceRecorder::instance().reset(); }
  void TearDown() override { ProvenanceRecorder::instance().reset(); }

  ProvSnapshot record_under(std::uint64_t sample_every) {
    auto& rec = ProvenanceRecorder::instance();
    rec.reset();
    {
      LIBERATE_PROV_SCOPE(kScope, sample_every);
      record_script();
    }
    return rec.snapshot();
  }
};

TEST_F(ProvenanceSampling, SampledFlowsRecordExactlyWhatAnUnsampledScopeDoes) {
  std::set<std::uint16_t> sampled;
  {
    ScopedProvScope scope(kScope, kEvery);
    for (std::uint16_t f = 0; f < kFlows; ++f) {
      if (ProvenanceRecorder::sampled(key_of(f))) sampled.insert(f);
    }
  }
  // About 1 flow in 64 of 1024: some, and far from all.
  EXPECT_GE(sampled.size(), 4u);
  EXPECT_LE(sampled.size(), 48u);

  const ProvSnapshot full = record_under(1);
  const ProvSnapshot thin = record_under(kEvery);
  // Nothing was evicted in either run, so the comparison is exact.
  ASSERT_EQ(full.ledgers.size(), kFlows);
  EXPECT_EQ(full.nodes_evicted, 0u);
  EXPECT_EQ(full.ledgers_evicted, 0u);

  // The sampled flows' nodes, edges and ledgers are identical...
  const std::vector<std::string> kept = render(thin, sampled);
  EXPECT_EQ(kept, render(full, sampled));
  // ...including the edge into the port-less fragment, which followed its
  // parent's decision; and the unsampled flows left nothing at all.
  EXPECT_EQ(thin.ledgers.size(), sampled.size());
  EXPECT_EQ(thin.nodes.size(), sampled.size() * 4);
  EXPECT_EQ(thin.edges.size(), sampled.size() * 2);
  EXPECT_EQ(kept.size(), thin.nodes.size() + thin.edges.size() +
                             thin.ledgers.size());
  EXPECT_EQ(thin.total_records, sampled.size() * 3);
}

TEST_F(ProvenanceSampling, DecisionIsPerScopeAndRestoredOnExit) {
  const FlowKey k = key_of(7);
  EXPECT_TRUE(ProvenanceRecorder::sampled(k));  // ambient scope: 1 in 1
  std::size_t hits = 0;
  {
    ScopedProvScope outer(kScope, kEvery);
    for (std::uint16_t f = 0; f < kFlows; ++f) {
      hits += ProvenanceRecorder::sampled(key_of(f)) ? 1 : 0;
    }
    {
      // A nested default scope (a round inside a sampled world) records
      // every flow again, and hands the outer sampling back on exit.
      ScopedProvScope inner(kScope + 1);
      for (std::uint16_t f = 0; f < kFlows; ++f) {
        EXPECT_TRUE(ProvenanceRecorder::sampled(key_of(f)));
      }
    }
    std::size_t again = 0;
    for (std::uint16_t f = 0; f < kFlows; ++f) {
      again += ProvenanceRecorder::sampled(key_of(f)) ? 1 : 0;
    }
    EXPECT_EQ(again, hits);
  }
  EXPECT_LT(hits, std::size_t{kFlows});
  EXPECT_EQ(ProvenanceRecorder::current_scope(), 0u);
  EXPECT_TRUE(ProvenanceRecorder::sampled(k));
}

}  // namespace
}  // namespace liberate::obs::prov
