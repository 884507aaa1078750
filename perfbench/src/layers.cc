// layers.cc — per-layer replays for traced runs.
//
// Datagram layers: a CaptureElement at the head of a benchmark-built world's
// path records what the client side puts on the wire. Two captures per
// world — one with the shim passing traffic through (the mix going INTO the
// shim) and one with the deployed technique (the mix coming OUT of it) —
// are then replayed through each layer's public function alone: the codec
// (parse_packet), checksum verification, the client port plus event-loop
// drain with no shim, DpiEngine::inspect, MatchProgram::run,
// EvasionShim::send into a sink port, IpReassembler::push and the FlowTable.
// The composed cost (a whole fleet shard wave, or a whole replay round, per
// datagram) is reported next to the sum of the layer costs.
//
// Round layers: each analysis's round mix — the plain replay plus every
// technique the evaluation wave ran — replayed through run_isolated_round.
#include <algorithm>
#include <memory>

#include "core/evasion/registry.h"
#include "core/parallel_analysis.h"
#include "core/replay.h"
#include "deploy/flow_driver.h"
#include "dpi/profiles.h"
#include "netsim/checksum.h"
#include "netsim/faulty.h"
#include "netsim/packet.h"
#include "stack/ip_reassembly.h"
#include "util/flow_table.h"
#include "workloads.h"

namespace perfbench {

using namespace liberate;

namespace {

constexpr std::uint32_t kServerIp = 0xc6336414;  // 198.51.100.20
constexpr std::size_t kDrainBatch = 512;         // as PacketFlowDriver
constexpr int kBlocks = 5;
constexpr double kBlockMs = 20;

/// Path element that copies every client->server datagram passing it and
/// tracks the DPI engine's peak flow-table size.
class CaptureElement : public netsim::PathElement {
 public:
  explicit CaptureElement(dpi::Environment& env) : env_(env) {}

  void process(Bytes datagram, netsim::Direction dir,
               netsim::ElementIo& io) override {
    ++wire;
    if (dir == netsim::Direction::kClientToServer) {
      out.push_back(datagram);
      at.push_back(io.now());
    }
    if (env_.dpi != nullptr) {
      dpi_flows_peak =
          std::max(dpi_flows_peak, env_.dpi->engine().tracked_flows());
    }
    io.forward(std::move(datagram));
  }
  std::string name() const override { return "perfbench-capture"; }

  std::vector<Bytes> out;
  std::vector<netsim::TimePoint> at;
  std::uint64_t wire = 0;  // both directions
  std::size_t dpi_flows_peak = 0;

 private:
  dpi::Environment& env_;
};

/// Endpoint that drops everything: the path replay measures the network and
/// its elements, not endpoint stacks.
struct NullHost : netsim::HostIface {
  void receive(Bytes) override {}
};

/// Port that swallows the shim's output.
class SinkPort : public netsim::NetworkPort {
 public:
  void send(Bytes) override { ++datagrams; }
  netsim::EventLoop& loop() override { return loop_; }
  std::uint64_t datagrams = 0;

 private:
  netsim::EventLoop loop_;
};

/// One captured datagram mix and what replaying it needs.
struct Mix {
  std::string environment;
  bool faults = false;
  std::uint64_t fault_seed = 0;
  std::vector<Bytes> pre;   // into the shim
  std::vector<Bytes> post;  // out of the shim
  std::vector<netsim::TimePoint> post_at;
  std::uint64_t wire = 0;   // datagrams at the capture point, per unit
  std::size_t dpi_flows_peak = 0;
  std::size_t flows = 0;
  std::shared_ptr<core::Technique> technique;
  core::TechniqueContext context;
  std::size_t shim_cap = core::EvasionShim::kDefaultMaxFlows;
  double composed_ns = 0;   // one fleet wave or one replay round
};

/// Median over kBlocks of the ns per item of `run`. A block repeats
/// prepare() (untimed) and run(state) (timed) until kBlockMs of run time.
template <typename Prepare, typename Run>
double timed_ns(Tracer& tracer, const char* span, std::size_t items,
                Prepare prepare, Run run) {
  if (items == 0) return 0;
  {
    auto state = prepare();
    run(state);  // warm-up
  }
  std::vector<double> per_item;
  for (int b = 0; b < kBlocks; ++b) {
    Scope s(tracer, span, static_cast<std::uint64_t>(b));
    double ms = 0;
    std::size_t reps = 0;
    while (ms < kBlockMs) {
      auto state = prepare();
      const Clock::time_point t0 = Clock::now();
      run(state);
      ms += ms_between(t0, Clock::now());
      ++reps;
    }
    per_item.push_back(ms * 1e6 /
                       static_cast<double>(reps * items));
  }
  return median(per_item);
}

std::unique_ptr<dpi::Environment> world(const Mix& mix, std::uint64_t seed) {
  auto env = dpi::make_environment(mix.environment, seed);
  if (mix.faults) {
    env->net.emplace_at<netsim::FaultyLink>(
        0, netsim::FaultPolicy::reorder_heavy(), mix.fault_seed);
  }
  return env;
}

netsim::FiveTuple flow_tuple(std::uint64_t serial) {
  netsim::FiveTuple t;
  t.src_ip = 0x0a010000u + static_cast<std::uint32_t>(serial / 16384);
  t.src_port = static_cast<std::uint16_t>(1024 + serial % 16384);
  t.dst_ip = kServerIp;
  t.dst_port = 80;
  t.protocol = 6;
  return t;
}

using ShimTable =
    FlowTable<netsim::FiveTuple, core::FlowShimState, netsim::FiveTupleHash>;

/// FlowTable lookups at `population` resident flows, and insert+evict at a
/// table held at `cap`.
void flow_table_layers(std::size_t population, std::size_t cap,
                       std::uint64_t seed, Tracer& tracer, Result& result) {
  population = std::max<std::size_t>(population, 1);
  std::vector<std::uint64_t> order(population);
  for (std::size_t i = 0; i < population; ++i) order[i] = i;
  for (std::size_t i = population; i > 1; --i) {
    std::swap(order[i - 1], order[mix(seed ^ i) % i]);
  }
  ShimTable table;
  table.reserve(population);
  for (std::size_t i = 0; i < population; ++i) table.touch(flow_tuple(i));
  bool resident = true;
  result.metric("util.flow_table_touch_ns",
                timed_ns(tracer, "util.flow_table.touch", population,
                         [] { return 0; },
                         [&](int) {
                           for (std::uint64_t i : order) {
                             resident &= !table.touch(flow_tuple(i)).second;
                           }
                         }));
  result.check("flow_table_lookups_hit", resident);

  cap = std::max<std::size_t>(cap, 1);
  const std::size_t inserts = std::max<std::size_t>(cap, 4096);
  ShimTable capped;
  std::uint64_t next = 0;
  for (; next < cap; ++next) capped.touch(flow_tuple(next));
  result.metric("util.flow_table_evict_ns",
                timed_ns(tracer, "util.flow_table.evict", inserts,
                         [] { return 0; },
                         [&](int) {
                           for (std::size_t i = 0; i < inserts; ++i) {
                             capped.touch(flow_tuple(next++));
                             if (capped.size() > cap) capped.evict_lru();
                           }
                         }));
}

/// Replays every mix through each layer alone and reports ns per datagram.
void replay_layers(std::vector<Mix>& mixes, std::uint64_t seed, Tracer& tracer,
                   Result& result) {
  struct Parsed {
    netsim::PacketView view;
    BytesView datagram;
    netsim::TimePoint at;
    std::size_t mix;
  };
  std::vector<Parsed> parsed;
  std::size_t post_total = 0, pre_total = 0, flows = 0;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    post_total += mixes[m].post.size();
    pre_total += mixes[m].pre.size();
    flows += mixes[m].flows;
    for (std::size_t i = 0; i < mixes[m].post.size(); ++i) {
      auto r = netsim::parse_packet(BytesView(mixes[m].post[i]));
      if (r.ok()) {
        parsed.push_back(
            {r.value(), BytesView(mixes[m].post[i]), mixes[m].post_at[i], m});
      }
    }
  }

  Scope layers_span(tracer, "layers", 0);
  bool parse_stable = true;
  const double parse_ns = timed_ns(
      tracer, "netsim.parse_packet", post_total, [] { return 0; }, [&](int) {
        std::size_t ok = 0;
        for (const Mix& m : mixes) {
          for (const Bytes& d : m.post) {
            ok += netsim::parse_packet(BytesView(d)).ok();
          }
        }
        parse_stable &= ok == parsed.size();
      });
  result.check("replay_parse_stable", parse_stable);

  struct Segment {
    std::uint32_t src, dst;
    BytesView bytes;
  };
  std::vector<Segment> segments;
  std::vector<BytesView> fragments;
  std::vector<netsim::TimePoint> fragment_at;
  for (const Parsed& p : parsed) {
    if (p.view.ip.is_fragment()) {
      fragments.push_back(p.datagram);
      fragment_at.push_back(p.at);
    } else if (p.view.ip.protocol == 6) {
      segments.push_back({p.view.ip.src, p.view.ip.dst, p.view.ip.payload});
    }
  }
  // Inert techniques corrupt checksums on purpose, so the valid share is
  // reported rather than checked.
  std::size_t valid = 0;
  const double checksum_ns = timed_ns(
      tracer, "netsim.transport_checksum", segments.size(), [] { return 0; },
      [&](int) {
        valid = 0;
        for (const Segment& s : segments) {
          valid += netsim::transport_checksum(s.src, s.dst, 6, s.bytes) == 0;
        }
      });
  result.metric("netsim.checksum_valid_share",
                static_cast<double>(valid) /
                    static_cast<double>(
                        std::max<std::size_t>(segments.size(), 1)));

  // Client port + event-loop drain, no shim: one persistent world per mix.
  std::vector<std::unique_ptr<dpi::Environment>> paths;
  std::vector<netsim::FaultyLink*> faulty;
  NullHost client, server;
  for (const Mix& m : mixes) {
    paths.push_back(world(m, derive_seed(seed, 1, paths.size())));
    faulty.push_back(m.faults ? dynamic_cast<netsim::FaultyLink*>(
                                    &paths.back()->net.element(0))
                              : nullptr);
    paths.back()->net.attach_client(&client);
    paths.back()->net.attach_server(&server);
  }
  const double path_ns = timed_ns(
      tracer, "netsim.path", post_total,
      [&] {
        std::vector<std::vector<Bytes>> copies;
        for (const Mix& m : mixes) copies.push_back(m.post);
        return copies;
      },
      [&](std::vector<std::vector<Bytes>>& copies) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
          netsim::EventLoop& loop = paths[m]->loop;
          std::size_t sent = 0;
          for (Bytes& d : copies[m]) {
            paths[m]->net.client_port().send(std::move(d));
            if (++sent % kDrainBatch == 0) loop.run_until_idle();
          }
          loop.run_until_idle();
        }
      });
  double faults = 0, seen = 0;
  for (netsim::FaultyLink* f : faulty) {
    if (f == nullptr) continue;
    seen += static_cast<double>(f->seen());
    faults += static_cast<double>(f->dropped() + f->duplicated() +
                                  f->truncated() + f->corrupted() +
                                  f->reordered());
  }
  result.metric("netsim.faults_per_kdatagram",
                seen == 0 ? 0.0 : faults / seen * 1e3);

  const double inspect_ns = timed_ns(
      tracer, "dpi.inspect", parsed.size(),
      [&] {
        std::vector<std::unique_ptr<dpi::DpiEngine>> engines;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
          const dpi::MiddleboxConfig& cfg = paths[m]->dpi->config();
          engines.push_back(
              std::make_unique<dpi::DpiEngine>(cfg.classifier, cfg.rules));
        }
        return engines;
      },
      [&](std::vector<std::unique_ptr<dpi::DpiEngine>>& engines) {
        for (const Parsed& p : parsed) {
          engines[p.mix]->inspect(p.view, netsim::Direction::kClientToServer,
                                  p.at);
        }
      });

  std::size_t scanned_bytes = 0;
  for (const Parsed& p : parsed) {
    if (p.view.tcp) scanned_bytes += p.view.tcp->payload.size();
  }
  dpi::MatchProgram::Scratch scratch;
  const double scan_ns = timed_ns(
      tracer, "dpi.match_program", std::max<std::size_t>(scanned_bytes, 1),
      [] { return 0; },
      [&](int) {
        for (const Parsed& p : parsed) {
          if (!p.view.tcp || p.view.tcp->payload.empty()) continue;
          const dpi::DpiEngine& engine = paths[p.mix]->dpi->engine();
          dpi::RuleContext ctx;
          ctx.dst_port = p.view.tcp->dst_port;
          engine.program().run(engine.rules(), p.view.tcp->payload, ctx,
                               nullptr, scratch);
        }
      });

  std::uint64_t shim_out = 0, evicted = 0;
  const double shim_ns = timed_ns(
      tracer, "core.shim_send", pre_total,
      [&] {
        struct State {
          std::vector<std::vector<Bytes>> copies;
          std::vector<std::unique_ptr<SinkPort>> sinks;
          std::vector<std::unique_ptr<core::EvasionShim>> shims;
        } s;
        for (const Mix& m : mixes) {
          s.copies.push_back(m.pre);
          s.sinks.push_back(std::make_unique<SinkPort>());
          auto shim = std::make_unique<core::EvasionShim>(*s.sinks.back(),
                                                          nullptr, m.context);
          if (m.technique) shim->set_technique(m.technique);
          shim->set_max_flows(m.shim_cap);
          s.shims.push_back(std::move(shim));
        }
        return s;
      },
      [&](auto& s) {
        shim_out = 0;
        evicted = 0;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
          std::size_t sent = 0;
          for (Bytes& d : s.copies[m]) {
            s.shims[m]->send(std::move(d));
            if (++sent % kDrainBatch == 0) s.sinks[m]->loop().run_until_idle();
          }
          s.sinks[m]->loop().run_until_idle();
          shim_out += s.sinks[m]->datagrams;
          evicted += s.shims[m]->flows_evicted();
        }
      });
  const double out_per_in =
      static_cast<double>(shim_out) / static_cast<double>(pre_total);

  const bool any_fragments = !fragments.empty();
  std::vector<BytesView> pushes = fragments;
  std::vector<netsim::TimePoint> push_at = fragment_at;
  if (!any_fragments) {
    for (const Parsed& p : parsed) {
      pushes.push_back(p.datagram);
      push_at.push_back(p.at);
    }
  }
  const double reassembly_ns = timed_ns(
      tracer, "stack.reassembly_push", pushes.size(),
      [] { return std::make_unique<stack::IpReassembler>(); },
      [&](std::unique_ptr<stack::IpReassembler>& r) {
        for (std::size_t i = 0; i < pushes.size(); ++i) {
          r->push(pushes[i], push_at[i]);
        }
      });

  std::size_t dpi_peak = 0;
  double composed_ns = 0, wire = 0;
  for (const Mix& m : mixes) {
    dpi_peak = std::max(dpi_peak, m.dpi_flows_peak);
    composed_ns += m.composed_ns;
    wire += static_cast<double>(m.wire);
  }
  const double fragment_share =
      static_cast<double>(fragments.size()) / static_cast<double>(post_total);
  result.metric("netsim.parse_ns", parse_ns);
  result.metric("netsim.checksum_ns", checksum_ns);
  result.metric("netsim.path_ns", path_ns);
  result.metric("dpi.inspect_ns", inspect_ns);
  result.metric("dpi.scan_ns_per_kib", scan_ns * 1024.0);
  result.metric("dpi.flows_tracked_peak", static_cast<double>(dpi_peak));
  result.metric("core.shim_send_ns", shim_ns);
  result.metric("core.shim_out_per_in", out_per_in);
  result.metric("core.shim_evictions_per_flow",
                static_cast<double>(evicted) / static_cast<double>(flows));
  result.metric("stack.reassembly_push_ns", reassembly_ns);
  result.metric("stack.fragment_share", fragment_share);
  // Each layer once per datagram on the wire: the codec, checksum
  // verification, the classifier, the shim (its per-input cost spread over
  // its outputs) and reassembly for the fragment share.
  result.metric("layers.sum_ns_per_datagram",
                parse_ns + checksum_ns + inspect_ns + shim_ns / out_per_in +
                    (any_fragments ? reassembly_ns * fragment_share : 0.0));
  result.metric("layers.composed_ns_per_datagram", composed_ns / wire);
}

/// Deploy-time analysis of a fleet: the technique and context its shards
/// run with.
struct Deployed {
  std::shared_ptr<core::Technique> technique;
  core::TechniqueContext context;
};

Deployed deploy_technique(const std::string& environment,
                          const trace::ApplicationTrace& trace,
                          std::uint64_t seed) {
  auto env = dpi::make_environment(environment, seed);
  core::Liberate lib(*env, seed);
  const core::SessionReport report = lib.analyze(trace);
  Deployed d;
  d.context = core::deployment_context(report);
  if (report.selected_technique) {
    d.technique = lib.instantiate(*report.selected_technique);
  }
  return d;
}

/// A benchmark-built fleet shard: the engine's shard world rebuilt from
/// public parts (profile world, optional fault link, long-lived shim,
/// PacketFlowDriver).
struct Shard {
  std::unique_ptr<dpi::Environment> env;
  CaptureElement* capture = nullptr;
  std::unique_ptr<core::EvasionShim> shim;
  std::unique_ptr<deploy::PacketFlowDriver> packets;
  Bytes payload;
  Bytes alt;
  std::size_t alt_every = 0;
  std::size_t flows = 0;

  deploy::WaveStats wave() {
    return packets->run_wave(flows, BytesView(payload), BytesView(alt),
                            alt_every);
  }
};

std::unique_ptr<Shard> make_shard(const FleetShape& shape,
                                  const trace::ApplicationTrace& trace,
                                  const Deployed* deployed, bool capture,
                                  std::uint64_t seed) {
  auto s = std::make_unique<Shard>();
  s->env = dpi::make_environment("testbed", seed);
  if (shape.faults) {
    s->env->net.emplace_at<netsim::FaultyLink>(
        0, netsim::FaultPolicy::reorder_heavy(), derive_seed(seed, 1));
  }
  if (capture) s->capture = &s->env->net.emplace_at<CaptureElement>(0, *s->env);
  s->shim = std::make_unique<core::EvasionShim>(
      s->env->net.client_port(), nullptr,
      deployed ? deployed->context : core::TechniqueContext{});
  if (deployed && deployed->technique) {
    s->shim->set_technique(deployed->technique);
  }
  s->shim->set_max_flows(shape.cap());
  s->shim->reserve_flows(shape.flows_per_shard * 2);
  deploy::PacketFlowConfig cfg;
  cfg.server_ip = kServerIp;
  cfg.server_port = trace.server_port;
  cfg.segment_bytes = shape.segment_bytes;
  s->packets =
      std::make_unique<deploy::PacketFlowDriver>(*s->env, *s->shim, cfg);
  for (const auto& m : trace.messages) {
    if (m.sender != liberate::trace::Sender::kClient) continue;
    s->payload.insert(s->payload.end(), m.payload.begin(), m.payload.end());
  }
  if (shape.alt_every != 0) {
    s->alt = core::decoy_request_payload();
    s->alt_every = shape.alt_every;
  }
  s->flows = shape.flows_per_shard;
  return s;
}

/// Capture the client-side wire of one world running a replay round.
CaptureElement* replay_capture(dpi::Environment& env,
                               const trace::ApplicationTrace& trace,
                               core::Technique* technique,
                               const core::TechniqueContext& context,
                               std::uint64_t seed, double* round_ns) {
  CaptureElement* cap = &env.net.emplace_at<CaptureElement>(0, env);
  core::ReplayRunner runner(env, seed);
  core::ReplayOptions opts;
  opts.technique = technique;
  opts.context = context;
  if (technique != nullptr) {
    const core::TimingPlan plan = technique->timing(context);
    opts.pause_before_match_s = plan.pause_before_match_s;
    opts.pause_after_match_s = plan.pause_after_match_s;
  }
  const Clock::time_point t0 = Clock::now();
  runner.run(trace, opts);
  if (round_ns != nullptr) *round_ns = ms_between(t0, Clock::now()) * 1e6;
  return cap;
}

}  // namespace

void fleet_datagram_layers(const FleetShape& shape,
                           const trace::ApplicationTrace& trace,
                           std::uint64_t seed, Tracer& tracer,
                           Result& result) {
  Scope span(tracer, "layers.fleet", 0);
  const Deployed deployed =
      deploy_technique("testbed", trace, derive_seed(seed, 0));

  // One shard wave at the workload's per-shard size, on a shard already
  // holding a few waves of resident flows.
  {
    auto shard =
        make_shard(shape, trace, &deployed, false, derive_seed(seed, 1));
    for (int i = 0; i < 3; ++i) shard->wave();
    std::vector<double> wave_ms;
    const Clock::time_point start = Clock::now();
    while (wave_ms.size() < 5 ||
           (seconds_since(start) < 0.5 && wave_ms.size() < 50)) {
      Scope w(tracer, "deploy.shard_wave", wave_ms.size());
      const Clock::time_point t0 = Clock::now();
      shard->wave();
      wave_ms.push_back(ms_between(t0, Clock::now()));
    }
    result.metric("deploy.shard_wave_ms", median(wave_ms));
  }

  Mix mix;
  mix.environment = "testbed";
  mix.faults = shape.faults;
  mix.fault_seed = derive_seed(seed, 2);
  mix.technique = deployed.technique;
  mix.context = deployed.context;
  mix.shim_cap = shape.cap();
  mix.flows = shape.flows_per_shard;
  {
    auto plain = make_shard(shape, trace, nullptr, true, derive_seed(seed, 3));
    plain->wave();
    mix.pre = std::move(plain->capture->out);
  }
  {
    auto shard =
        make_shard(shape, trace, &deployed, true, derive_seed(seed, 4));
    shard->wave();
    mix.post = std::move(shard->capture->out);
    mix.post_at = std::move(shard->capture->at);
    mix.wire = shard->capture->wire;
    mix.dpi_flows_peak = shard->capture->dpi_flows_peak;
  }
  mix.composed_ns = result.metrics["deploy.shard_wave_ms"] * 1e6;
  std::vector<Mix> mixes;
  mixes.push_back(std::move(mix));
  replay_layers(mixes, derive_seed(seed, 5), tracer, result);
  flow_table_layers(shape.flows_per_shard * (shape.waves + 1), shape.cap(),
                    derive_seed(seed, 6), tracer, result);
}

void round_datagram_layers(const std::vector<Network>& networks,
                           const std::vector<core::SessionReport>& reports,
                           std::uint64_t seed, Tracer& tracer,
                           Result& result) {
  Scope span(tracer, "layers.rounds", 0);
  std::vector<Mix> mixes;
  for (std::size_t k = 0; k < networks.size(); ++k) {
    const Network& n = networks[k];
    Mix mix;
    mix.environment = n.environment;
    mix.flows = 1;
    mix.context = core::deployment_context(reports[k]);
    {
      auto env = dpi::make_environment(n.environment, derive_seed(seed, k, 0));
      mix.pre = std::move(replay_capture(*env, n.trace, nullptr, mix.context,
                                         derive_seed(seed, k, 1), nullptr)
                              ->out);
    }
    if (reports[k].selected_technique) {
      auto env = dpi::make_environment(n.environment, derive_seed(seed, k, 2));
      core::Liberate lib(*env);
      mix.technique = lib.instantiate(*reports[k].selected_technique);
    }
    // The composed cost: whole replay rounds with the selected technique.
    std::vector<double> round_ns;
    for (int rep = 0; rep < 5; ++rep) {
      auto env = dpi::make_environment(n.environment, derive_seed(seed, k, 3));
      double ns = 0;
      CaptureElement* cap = replay_capture(*env, n.trace, mix.technique.get(),
                                           mix.context, derive_seed(seed, k, 4),
                                           &ns);
      round_ns.push_back(ns);
      if (rep == 0) {
        mix.post = std::move(cap->out);
        mix.post_at = std::move(cap->at);
        mix.wire = cap->wire;
        mix.dpi_flows_peak = cap->dpi_flows_peak;
      }
    }
    mix.composed_ns = median(round_ns);
    mixes.push_back(std::move(mix));
  }
  replay_layers(mixes, derive_seed(seed, 100), tracer, result);
  flow_table_layers(networks.size(), core::EvasionShim::kDefaultMaxFlows,
                    derive_seed(seed, 101), tracer, result);
}

std::vector<core::SessionReport> analysis_layers(
    const std::vector<Network>& networks, std::uint64_t seed,
    std::size_t passes, Tracer& tracer, Result& result) {
  const std::size_t workers = pool_width();
  std::vector<core::SessionReport> reports(networks.size());
  std::vector<double> detect, characterize, evaluate;
  AnalysisCost total;
  for (std::size_t p = 0; p < passes; ++p) {
    AnalysisCost pass;
    for (std::size_t k = 0; k < networks.size(); ++k) {
      reports[k] = cold_analysis(networks[k], derive_seed(seed, p, k), workers,
                                 tracer, p, &pass);
    }
    detect.push_back(pass.detect_ms);
    characterize.push_back(pass.characterize_ms);
    evaluate.push_back(pass.evaluate_ms);
    total += pass;
  }
  result.metric("core.detect_ms", median(detect));
  result.metric("core.characterize_ms", median(characterize));
  result.metric("core.evaluate_ms", median(evaluate));
  result.metric("core.rounds_per_pass",
                static_cast<double>(total.rounds_submitted) /
                    static_cast<double>(passes));
  result.metric("core.cache_hit_ratio",
                static_cast<double>(total.rounds_from_cache) /
                    static_cast<double>(total.rounds_submitted));
  result.metric("core.parallel_efficiency",
                total.cpu_s /
                    (total.wall_ms / 1e3 * static_cast<double>(workers)));
  return reports;
}

void round_layers(const std::vector<Network>& networks,
                  const std::vector<core::SessionReport>& reports,
                  std::uint64_t seed, Tracer& tracer, Result& result) {
  Scope span(tracer, "layers.round_mix", 0);
  std::vector<double> round_us;
  for (std::size_t k = 0; k < networks.size(); ++k) {
    core::WorldSpec spec;
    spec.environment = networks[k].environment;
    spec.seed = derive_seed(seed, k);
    std::vector<core::RoundRequest> mix;
    core::RoundRequest plain;
    plain.trace = networks[k].trace;
    mix.push_back(plain);
    const core::TechniqueContext context =
        core::deployment_context(reports[k]);
    std::uint16_t port = 27000;
    for (const core::TechniqueOutcome& o : reports[k].evaluation.outcomes) {
      if (o.pruned) continue;
      core::RoundRequest req = plain;
      req.technique = o.technique;
      req.context = context;
      if (!reports[k].characterization.port_sensitive) {
        req.server_port_override = port++;
      }
      mix.push_back(std::move(req));
    }
    for (const core::RoundRequest& req : mix) {
      Scope round(tracer, "core.run_isolated_round", k);
      const Clock::time_point t0 = Clock::now();
      core::run_isolated_round(spec, req);
      round_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
  }
  result.metric("core.round_us_p50", quantile(round_us, 0.5));
  result.metric("core.round_us_p90", quantile(round_us, 0.9));
  result.metric("core.round_mix_size", static_cast<double>(round_us.size()));
}

}  // namespace perfbench
