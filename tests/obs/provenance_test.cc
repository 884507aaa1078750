// Flight-recorder unit tests: content-derived identity, lineage edges,
// bounded ledgers, verdict explanation rendering, Chrome-trace schema shape,
// and thread-safety under concurrent recording (the TSan stress leg matches
// on the Provenance prefix).
#include "obs/provenance/recorder.h"

#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <thread>

#include "obs/provenance/chrome_trace.h"
#include "obs/provenance/explain.h"
#include "obs/snapshot.h"
#include "util/thread_pool.h"

namespace liberate::obs::prov {
namespace {

Bytes fake_ipv4(std::uint8_t proto, std::uint32_t src, std::uint16_t sport,
                std::uint32_t dst, std::uint16_t dport,
                std::initializer_list<std::uint8_t> payload = {}) {
  Bytes d(20, 0);
  d[0] = 0x45;
  d[9] = proto;
  for (int i = 0; i < 4; ++i) {
    d[12 + i] = static_cast<std::uint8_t>(src >> (24 - 8 * i));
    d[16 + i] = static_cast<std::uint8_t>(dst >> (24 - 8 * i));
  }
  d.push_back(static_cast<std::uint8_t>(sport >> 8));
  d.push_back(static_cast<std::uint8_t>(sport));
  d.push_back(static_cast<std::uint8_t>(dport >> 8));
  d.push_back(static_cast<std::uint8_t>(dport));
  d.insert(d.end(), payload.begin(), payload.end());
  return d;
}

// The n-th of up to 2^32 distinct packets of one TCP flow, for filling the
// recorder's tables past their capacities.
Bytes numbered_packet(std::uint32_t n) {
  auto byte = [n](int shift) { return static_cast<std::uint8_t>(n >> shift); };
  return fake_ipv4(6, 1, 1, 2, 2, {byte(24), byte(16), byte(8), byte(0)});
}

class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override { ProvenanceRecorder::instance().reset(); }
  void TearDown() override { ProvenanceRecorder::instance().reset(); }
};

TEST_F(ProvenanceTest, PacketIdsAreContentDerivedAndIdempotent) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes a = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478, {1, 2, 3});
  Bytes b = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478, {1, 2, 4});

  std::uint64_t id1 = rec.packet(a, "udp");
  std::uint64_t id2 = rec.packet(a, "udp");  // retransmission
  std::uint64_t id3 = rec.packet(b, "udp");
  EXPECT_EQ(id1, id2);
  EXPECT_NE(id1, id3);
  EXPECT_EQ(id1, packet_id(a));  // pure function of the bytes

  auto n = rec.node(id1);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->size, a.size());
  EXPECT_EQ(n->kind, "udp");
}

TEST_F(ProvenanceTest, WireStubsUpgradeToRealOriginKind) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes a = fake_ipv4(6, 1, 1, 2, 2, {9});
  rec.packet(a, "wire");  // seen on the wire before its origin registered
  rec.packet(a, "tcp");
  EXPECT_EQ(rec.node(packet_id(a))->kind, "tcp");
  rec.packet(a, "wire");  // a later wire sighting must not downgrade
  EXPECT_EQ(rec.node(packet_id(a))->kind, "tcp");
}

TEST_F(ProvenanceTest, EdgesDedupeAndSortDeterministically) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes parent = fake_ipv4(6, 1, 1, 2, 2, {1});
  Bytes child = fake_ipv4(6, 1, 1, 2, 2, {2});

  rec.edge(10, parent, child, "split", "tcp-segmentation", "payload[0..1)");
  rec.edge(11, parent, child, "split", "tcp-segmentation");  // dup: dropped
  rec.edge(12, parent, child, "insert", "inert-ttl");
  rec.edge(13, child, child, "split", "self");  // self-loop: ignored

  auto hops = rec.parents_of(packet_id(child));
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].kind, "insert");  // (child, parent, kind, actor) order
  EXPECT_EQ(hops[1].kind, "split");
  EXPECT_EQ(hops[1].ts_us, 10u);  // first sighting won
  EXPECT_EQ(hops[1].detail, "payload[0..1)");
}

TEST_F(ProvenanceTest, EdgeFanInIsCapped) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes child = fake_ipv4(6, 1, 1, 2, 2, {0});
  for (std::uint8_t i = 1; i <= 40; ++i) {
    Bytes parent = fake_ipv4(6, 1, 1, 2, 2, {i});
    rec.edge(i, parent, child, "reassembly", "ip-reassembler");
  }
  EXPECT_LE(rec.parents_of(packet_id(child)).size(), 16u);
}

TEST_F(ProvenanceTest, FlowKeyIsDirectionFree) {
  FlowKey forward = flow_key(0x0a000001, 42001, 0xc6336414, 3478, 17);
  FlowKey reverse = flow_key(0xc6336414, 3478, 0x0a000001, 42001, 17);
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward.to_string(), "10.0.0.1:42001<->198.51.100.20:3478/udp");
  EXPECT_EQ(FlowKey{}.to_string(), "<no-flow>");
}

TEST_F(ProvenanceTest, FlowKeyOfParsesRawIpv4) {
  Bytes d = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478);
  FlowKey k = flow_key_of(d);
  EXPECT_TRUE(k.valid);
  EXPECT_EQ(k, flow_key(0x0a000001, 42001, 0xc6336414, 3478, 17));

  EXPECT_FALSE(flow_key_of(Bytes{0x45, 0x00}).valid);  // truncated
  Bytes not_v4 = d;
  not_v4[0] = 0x65;
  EXPECT_FALSE(flow_key_of(not_v4).valid);

  // Non-first fragment: addresses yes, ports no (payload is mid-stream).
  Bytes frag = d;
  frag[6] = 0x00;
  frag[7] = 0x03;  // fragment offset 3
  FlowKey fk = flow_key_of(frag);
  EXPECT_TRUE(fk.valid);
  EXPECT_EQ(fk.port_a, 0);
  EXPECT_EQ(fk.port_b, 0);
}

TEST_F(ProvenanceTest, NodeTableEvictsFifoAndCountsEvictions) {
  auto& rec = ProvenanceRecorder::instance();
  constexpr std::uint32_t kPushed = ProvenanceRecorder::kNodeCapacity + 4;
  std::vector<std::uint64_t> ids;
  for (std::uint32_t i = 0; i < kPushed; ++i) {
    ids.push_back(rec.packet(numbered_packet(i), "tcp"));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(rec.node(ids[i]).has_value()) << i;  // the 4 oldest gone
  }
  EXPECT_TRUE(rec.node(ids[4]).has_value());           // oldest survivor
  EXPECT_TRUE(rec.node(ids[kPushed - 1]).has_value());  // newest kept
  ProvSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.nodes.size(), ProvenanceRecorder::kNodeCapacity);
  EXPECT_EQ(snap.nodes_evicted, 4u);
}

TEST_F(ProvenanceTest, LedgerRingDropsOldestWithExactCounts) {
  auto& rec = ProvenanceRecorder::instance();
  constexpr std::uint64_t kCap = ProvenanceRecorder::kLedgerCapacity;
  constexpr std::uint64_t kPushed = kCap + 7;
  FlowKey flow = flow_key(1, 1, 2, 2, 6);
  for (std::uint64_t i = 0; i < kPushed; ++i) {
    rec.note(i, flow, "dpi-skip", {fv("i", i)});
  }
  auto ledgers = rec.ledgers_for(flow);
  ASSERT_EQ(ledgers.size(), 1u);
  ASSERT_EQ(ledgers[0].records.size(), kCap);
  EXPECT_EQ(ledgers[0].dropped, 7u);
  EXPECT_EQ(ledgers[0].total, kPushed);
  EXPECT_EQ(ledgers[0].records.front().seq, 7u);  // oldest survivor
  EXPECT_EQ(ledgers[0].records.front().fields[0].value, "7");
  EXPECT_EQ(ledgers[0].records.back().seq, kPushed - 1);  // newest survived
  EXPECT_EQ(rec.snapshot().total_records, kPushed);
}

TEST_F(ProvenanceTest, LedgerSetEvictsOldestFlows) {
  auto& rec = ProvenanceRecorder::instance();
  constexpr std::size_t kFlows = ProvenanceRecorder::kMaxFlows + 1;
  auto nth_flow = [](std::size_t n) {
    return flow_key(1, 1, 2, static_cast<std::uint16_t>(n), 6);
  };
  for (std::size_t n = 0; n < kFlows; ++n) {
    rec.note(n, nth_flow(n), "dpi-skip", {});
  }
  EXPECT_TRUE(rec.ledgers_for(nth_flow(0)).empty());  // FIFO victim
  EXPECT_EQ(rec.ledgers_for(nth_flow(1)).size(), 1u);
  EXPECT_EQ(rec.ledgers_for(nth_flow(kFlows - 1)).size(), 1u);
  ProvSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.ledgers.size(), ProvenanceRecorder::kMaxFlows);
  EXPECT_EQ(snap.ledgers_evicted, 1u);
}

TEST_F(ProvenanceTest, ScopesKeepParallelLedgersSeparate) {
  auto& rec = ProvenanceRecorder::instance();
  FlowKey flow = flow_key(1, 1, 2, 2, 17);
  rec.note(5, flow, "ambient", {});
  {
    ScopedProvScope scope(0xABCD);
    EXPECT_EQ(ProvenanceRecorder::current_scope(), 0xABCDu);
    rec.note(7, flow, "scoped", {});
  }
  EXPECT_EQ(ProvenanceRecorder::current_scope(), 0u);
  auto ledgers = rec.ledgers_for(flow);
  ASSERT_EQ(ledgers.size(), 2u);
  EXPECT_EQ(ledgers[0].scope, 0u);  // scope-ascending
  EXPECT_EQ(ledgers[0].records[0].kind, "ambient");
  EXPECT_EQ(ledgers[1].scope, 0xABCDu);
  EXPECT_EQ(ledgers[1].records[0].kind, "scoped");
}

TEST_F(ProvenanceTest, ExplainNamesRuleOffsetsAndLineage) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes parent = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478, {1, 2});
  Bytes child = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478, {1});
  rec.packet(parent, "udp");
  rec.edge(90, parent, child, "split", "udp-fragmentation",
           "payload[0..1) of parent");

  FlowKey flow = flow_key_of(child);
  std::uint64_t child_id = rec.packet(child, "udp");
  rec.note(100, flow, "rules-evaluated",
           {fv("tried", std::int64_t{3}), fv("class", "skype"),
            fv("rule", "testbed-skype-stun"), fv("offsets", "24")},
           child_id);
  rec.note(101, flow, "verdict",
           {fv("class", "skype"), fv("rule", "testbed-skype-stun"),
            fv("action", "block")},
           child_id);

  Explanation ex = explain_verdict(flow);
  EXPECT_TRUE(ex.found);
  EXPECT_EQ(ex.verdict_class, "skype");
  EXPECT_EQ(ex.verdict_rule, "testbed-skype-stun");
  EXPECT_EQ(ex.verdict_action, "block");
  // The causal chain names the rule, the matched offsets, and the lineage.
  EXPECT_NE(ex.text.find("classified as skype by rule testbed-skype-stun"),
            std::string::npos);
  EXPECT_NE(ex.text.find("offsets=24"), std::string::npos);
  EXPECT_NE(ex.text.find("<- split of pkt " + id_hex(packet_id(parent))),
            std::string::npos);
  EXPECT_NE(ex.text.find("by udp-fragmentation"), std::string::npos);
  EXPECT_NE(ex.json.find("\"rule\":\"testbed-skype-stun\""),
            std::string::npos);
  EXPECT_NE(ex.json.find("\"hop\":\"split\""), std::string::npos);
}

TEST_F(ProvenanceTest, ExplainPrefersTheDecisiveScope) {
  auto& rec = ProvenanceRecorder::instance();
  FlowKey flow = flow_key(1, 1, 2, 2, 6);
  {
    ScopedProvScope scope(7);
    rec.note(50, flow, "dpi-skip", {fv("reason", "mid-flow-unknown")});
  }
  {
    ScopedProvScope scope(9);
    rec.note(60, flow, "verdict", {fv("class", "video")});
  }
  Explanation ex = explain_verdict(flow);
  EXPECT_EQ(ex.scope, 9u);
  EXPECT_EQ(ex.verdict_class, "video");
}

TEST_F(ProvenanceTest, ExplainUnknownFlowSaysSo) {
  Explanation ex = explain_verdict(flow_key(9, 9, 8, 8, 6));
  EXPECT_FALSE(ex.found);
  EXPECT_NE(ex.text.find("no provenance recorded"), std::string::npos);
  EXPECT_NE(ex.json.find("\"found\":false"), std::string::npos);
}

TEST_F(ProvenanceTest, ChromeTraceHasTraceEventSchema) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes parent = fake_ipv4(6, 1, 1, 2, 2, {1});
  Bytes child = fake_ipv4(6, 1, 1, 2, 2, {2});
  rec.edge(10, parent, child, "split", "tcp-segmentation");
  rec.note_pkt(20, flow_key_of(child), child, "verdict",
               {fv("class", "video")});

  std::string json = to_chrome_trace_json(capture());
  // Chrome trace-event "JSON Object Format": a traceEvents array of events
  // with ph/ts/pid fields; metadata names the process, provenance records
  // are thread-scoped instants, hops are process-scoped instants.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hop:split\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"verdict\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Deterministic: same recorder state renders the same bytes.
  EXPECT_EQ(json, to_chrome_trace_json(capture()));
}

TEST_F(ProvenanceTest, SnapshotSummaryReachesTelemetryJson) {
  auto& rec = ProvenanceRecorder::instance();
  const Bytes d = fake_ipv4(6, 1, 1, 2, 2, {5});
  rec.note_pkt(30, flow_key_of(d), d, "dpi-skip",
               {fv("reason", "invalid-packet")});
  std::string telemetry = to_json(capture());
  EXPECT_NE(telemetry.find("\"provenance\":{"), std::string::npos);
  EXPECT_NE(telemetry.find("\"flows\":1"), std::string::npos);
}

TEST_F(ProvenanceTest, ProvenanceConcurrencyManyThreads) {
  auto& rec = ProvenanceRecorder::instance();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      ScopedProvScope scope(static_cast<std::uint64_t>(t + 1));
      for (int i = 0; i < kPerThread; ++i) {
        Bytes parent = fake_ipv4(6, 1, 1, 2, 2,
                                 {static_cast<std::uint8_t>(t),
                                  static_cast<std::uint8_t>(i)});
        Bytes child = fake_ipv4(6, 1, 1, 2, 2,
                                {static_cast<std::uint8_t>(t),
                                 static_cast<std::uint8_t>(i), 0xFF});
        rec.packet(parent, "tcp");
        rec.edge(static_cast<std::uint64_t>(i), parent, child, "split",
                 "stress");
        rec.note_pkt(static_cast<std::uint64_t>(i), flow_key_of(child), child,
                     "rules-evaluated", {fv("tried", std::int64_t{i})});
      }
    });
  }
  for (auto& th : threads) th.join();

  ProvSnapshot snap = rec.snapshot();
  // All threads hit the same flow but distinct scopes: one ledger each,
  // every record accounted for.
  EXPECT_EQ(snap.ledgers.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(snap.total_records,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// Differential test of the striped recorder: the same script of packet /
// edge / note calls, run as tasks on a 4-worker pool and serially, must
// leave the same recorder state.
class ProvenanceConcurrency : public ProvenanceTest {
 protected:
  static constexpr int kTasks = 16;
  static constexpr int kSteps = 40;
  static constexpr int kShared = 24;

  // Shared packets: three client addresses x five ports, so several packets
  // share a flow and every flow is seen by several tasks.
  static Bytes shared_packet(int k) {
    return fake_ipv4(6, 0x0a000001u + static_cast<std::uint32_t>(k % 3),
                     static_cast<std::uint16_t>(1000 + k % 5), 0xc0a80001u, 80,
                     {static_cast<std::uint8_t>(k)});
  }

  // Records task t writes past its own ledger's capacity, so `dropped` is
  // exercised; each task's count differs.
  static std::uint64_t overflow_records(int t) {
    return ProvenanceRecorder::kLedgerCapacity + 1 + static_cast<unsigned>(t);
  }

  // One task's script. Every field a task writes into shared state (node
  // kind, edge ts/detail) is a function of the packets alone, and each
  // child has at most four distinct parents (under the fan-in cap), so the
  // outcome cannot depend on which task gets there first. Ledgers are
  // per task (one scope each), so their record order is the task's own.
  static void run_task(int t) {
    auto& rec = ProvenanceRecorder::instance();
    ScopedProvScope scope(static_cast<std::uint64_t>(t + 1));
    for (int s = 0; s < kSteps; ++s) {
      const int c = (t * 7 + s * 3 + 1) % kShared;
      const int p = (c + 1 + (t + s) % 4) % kShared;
      Bytes child = shared_packet(c);
      Bytes parent = shared_packet(p);
      if ((t + s) % 3 == 0) rec.packet(parent, "tcp");
      rec.edge(static_cast<std::uint64_t>(p * 100 + c), parent, child, "split",
               "stress", "of " + std::to_string(p));
      rec.note_pkt(static_cast<std::uint64_t>(s), flow_key_of(child), child,
                   "rules-evaluated", {fv("task", t), fv("step", s)});
      if (s % 5 == 0) {
        rec.note(static_cast<std::uint64_t>(s), flow_key_of(parent), "dpi-skip",
                 {fv("reason", "stress")});
      }
    }
    const FlowKey own = flow_key(0x0b000000u, 7, 0xc0a80001u, 80, 6);
    for (std::uint64_t i = 0; i < overflow_records(t); ++i) {
      rec.note(i, own, "overflow", {fv("i", i)});
    }
  }

  static std::string describe(const ProvSnapshot& snap) {
    std::ostringstream out;
    for (const NodeInfo& n : snap.nodes) {
      out << "node " << id_hex(n.id) << ' ' << n.size << ' ' << n.kind << '\n';
    }
    for (const EdgeInfo& e : snap.edges) {
      out << "edge " << id_hex(e.child) << " <- " << id_hex(e.parent) << ' '
          << e.ts_us << ' ' << e.kind << ' ' << e.actor << ' ' << e.detail
          << '\n';
    }
    for (const LedgerSnapshot& l : snap.ledgers) {
      out << "ledger " << l.scope << ' ' << l.flow.to_string() << " total "
          << l.total << " dropped " << l.dropped << '\n';
      for (const ProvRecord& r : l.records) {
        out << "  " << r.seq << ' ' << r.ts_us << ' ' << r.kind << ' '
            << id_hex(r.pkt);
        for (const EventField& f : r.fields) {
          out << ' ' << f.key << '=' << f.value;
        }
        out << '\n';
      }
    }
    out << "evicted " << snap.nodes_evicted << ' ' << snap.ledgers_evicted
        << " records " << snap.total_records << '\n';
    return out.str();
  }

  template <typename Task>
  static void run_on_pool(Task task) {
    ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (int t = 0; t < kTasks; ++t) {
      done.push_back(pool.submit([task, t] { task(t); }));
    }
    for (auto& f : done) f.get();
  }
};

TEST_F(ProvenanceConcurrency, PoolWorkersMatchSerial) {
  auto& rec = ProvenanceRecorder::instance();
  // Each task overflows one ledger of its own, so its drops do not depend
  // on scheduling. No shared cap (node table, flow set) is reached.
  for (int t = 0; t < kTasks; ++t) run_task(t);
  ProvSnapshot serial = rec.snapshot();
  rec.reset();
  run_on_pool(run_task);
  ProvSnapshot pooled = rec.snapshot();

  EXPECT_EQ(serial.nodes_evicted, 0u);
  EXPECT_EQ(serial.ledgers_evicted, 0u);
  EXPECT_EQ(serial.nodes.size(), static_cast<std::size_t>(kShared));
  EXPECT_FALSE(serial.edges.empty());
  std::uint64_t overflowed = 0;
  for (int t = 0; t < kTasks; ++t) overflowed += overflow_records(t);
  EXPECT_EQ(serial.total_records,
            static_cast<std::uint64_t>(kTasks) * (kSteps + kSteps / 5) +
                overflowed);
  EXPECT_EQ(std::count_if(
                serial.ledgers.begin(), serial.ledgers.end(),
                [](const LedgerSnapshot& l) { return l.dropped > 0; }),
            kTasks);
  EXPECT_EQ(describe(serial), describe(pooled));

  // Past the node and flow caps the eviction rings are contended. Every
  // packet and every (scope, flow) below is inserted exactly once, so live
  // + evicted must account for each of them exactly.
  constexpr std::size_t kNodeCap = ProvenanceRecorder::kNodeCapacity;
  constexpr std::size_t kFlowCap = ProvenanceRecorder::kMaxFlows;
  constexpr int kPerTask = static_cast<int>(kNodeCap / (3 * kTasks)) + 32;
  static_assert(std::size_t{kTasks} * kPerTask * 3 > kNodeCap);
  static_assert(std::size_t{kTasks} * kPerTask > kFlowCap);
  rec.reset();
  run_on_pool([](int t) {
    auto& r = ProvenanceRecorder::instance();
    ScopedProvScope scope(static_cast<std::uint64_t>(t + 1));
    for (int i = 0; i < kPerTask; ++i) {
      const std::uint32_t n = static_cast<std::uint32_t>(t * kPerTask + i) * 3;
      r.packet(numbered_packet(n), "tcp");
      r.edge(0, numbered_packet(n + 1), numbered_packet(n + 2), "split",
             "stress");
      r.note(0, flow_key(1, static_cast<std::uint16_t>(i), 2, 2, 6),
             "dpi-skip", {});
    }
  });
  ProvSnapshot capped = rec.snapshot();
  EXPECT_LE(capped.nodes.size(), kNodeCap);
  EXPECT_EQ(capped.nodes.size() + capped.nodes_evicted,
            static_cast<std::uint64_t>(kTasks) * kPerTask * 3);
  EXPECT_LE(capped.ledgers.size(), kFlowCap);
  EXPECT_EQ(capped.ledgers.size() + capped.ledgers_evicted,
            static_cast<std::uint64_t>(kTasks) * kPerTask);
}

}  // namespace
}  // namespace liberate::obs::prov
