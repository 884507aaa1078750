// bench_micro_codec — google-benchmark micro suite for the substrate: packet
// codecs, checksums, classifier inspection throughput, and the evasion
// shim's per-packet cost. These bound the overhead lib·erate's deployment
// path adds per packet (§5.3: "negligible overhead").
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/evasion/registry.h"
#include "core/evasion/shim.h"
#include "dpi/classifier.h"
#include "dpi/profiles.h"
#include "netsim/checksum.h"
#include "netsim/packet.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace {

using namespace liberate;
using namespace liberate::netsim;

Bytes sample_datagram(std::size_t payload_size) {
  Rng rng(7);
  Ipv4Header ip;
  ip.src = ip_addr("10.0.0.1");
  ip.dst = ip_addr("10.9.9.9");
  TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 80;
  tcp.seq = 1000;
  tcp.flags = TcpFlags::kAck | TcpFlags::kPsh;
  return make_tcp_datagram(ip, tcp, rng.bytes(payload_size));
}

void BM_InternetChecksum(benchmark::State& state) {
  Rng rng(3);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(576)->Arg(1460);

void BM_SerializeTcpDatagram(benchmark::State& state) {
  Rng rng(5);
  Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  Ipv4Header ip;
  ip.src = 1;
  ip.dst = 2;
  TcpHeader tcp;
  tcp.flags = TcpFlags::kAck;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_tcp_datagram(ip, tcp, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerializeTcpDatagram)->Arg(64)->Arg(1400);

void BM_ParsePacket(benchmark::State& state) {
  Bytes dgram = sample_datagram(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_packet(dgram));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dgram.size()));
}
BENCHMARK(BM_ParsePacket)->Arg(64)->Arg(1400);

void BM_AnomalyScan(benchmark::State& state) {
  Bytes dgram = sample_datagram(1400);
  auto pkt = parse_packet(dgram).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(anomalies_of(pkt));
  }
}
BENCHMARK(BM_AnomalyScan);

void BM_ClassifierInspectPerPacket(benchmark::State& state) {
  dpi::ClassifierConfig c;
  c.requires_syn = false;
  c.mode = dpi::ClassifierConfig::Mode::kPerPacket;
  dpi::MatchRule r;
  r.traffic_class = "video";
  r.keywords = {"Host: d25xi40x97liuc.cloudfront.net"};
  dpi::DpiEngine engine(c, {r});

  std::string req =
      "GET /x HTTP/1.1\r\nHost: www.plain-example.org\r\nUA: y\r\n\r\n";
  Bytes dgram = [&] {
    Ipv4Header ip;
    ip.src = 1;
    ip.dst = 2;
    TcpHeader tcp;
    tcp.src_port = 1;
    tcp.dst_port = 80;
    tcp.flags = TcpFlags::kAck;
    return make_tcp_datagram(ip, tcp, to_bytes(req));
  }();
  auto pkt = parse_packet(dgram).value();
  std::uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.inspect(pkt, Direction::kClientToServer, now++));
  }
}
BENCHMARK(BM_ClassifierInspectPerPacket);

// The deployment-path cost: one data packet through the evasion shim with an
// inert-insertion technique armed (after the first packet it is pure
// matching + pass-through).
void BM_ShimPassThrough(benchmark::State& state) {
  struct NullPort : NetworkPort {
    EventLoop loop_;
    void send(Bytes d) override { benchmark::DoNotOptimize(d.data()); }
    EventLoop& loop() override { return loop_; }
  };
  NullPort port;
  core::TechniqueContext ctx;
  ctx.matching_snippets = {to_bytes("Host: d25xi40x97liuc.cloudfront.net")};
  ctx.decoy_payload = core::decoy_request_payload();
  core::InertInsertion inert(core::InertVariant::kLowTtl);
  core::EvasionShim shim(port, &inert, ctx);
  Bytes dgram = sample_datagram(1400);
  for (auto _ : state) {
    shim.send(Bytes(dgram));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dgram.size()));
}
BENCHMARK(BM_ShimPassThrough);

void BM_SplitPlanAndTransform(benchmark::State& state) {
  core::TechniqueContext ctx;
  ctx.matching_snippets = {to_bytes("needle-field")};
  Bytes payload(1200, 'a');
  std::string needle = "needle-field";
  std::copy(needle.begin(), needle.end(), payload.begin() + 600);
  Ipv4Header ip;
  ip.src = 1;
  ip.dst = 2;
  TcpHeader tcp;
  tcp.src_port = 1;
  tcp.dst_port = 80;
  tcp.flags = TcpFlags::kAck;
  Bytes dgram = make_tcp_datagram(ip, tcp, payload);
  auto pkt = parse_packet(dgram).value();
  core::TcpSegmentSplit split(false);
  for (auto _ : state) {
    core::FlowShimState st;
    benchmark::DoNotOptimize(
        split.transform_matching_packet(Bytes(dgram), pkt, st, ctx));
  }
}
BENCHMARK(BM_SplitPlanAndTransform);

// Cost of one hot-path obs macro at the build's configured level: a relaxed
// fetch_add on a per-worker cell when enabled, nothing when compiled out.
// Satellite guard for the "<5% regression at level=full" acceptance bound —
// compare BM_ShimPassThrough/BM_ClassifierInspectPerPacket across
// LIBERATE_OBS_LEVEL settings.
void BM_ObsCounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    LIBERATE_COUNTER_ADD("bench.counter_add", 1);
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHdrRecord(benchmark::State& state) {
  std::uint64_t v = 0;
  for (auto _ : state) {
    LIBERATE_HDR_RECORD("bench.hdr_record", v);
    v += 250;
    if (v > 16000) v = 0;
  }
}
BENCHMARK(BM_ObsHdrRecord);

}  // namespace

// BENCHMARK_MAIN plus a default --benchmark_out: console output unchanged,
// and the same results land in BENCH_micro_codec.json like every other
// bench. An explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_codec.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  if (!has_out) std::printf("wrote BENCH_micro_codec.json\n");
  benchmark::Shutdown();
  return 0;
}
