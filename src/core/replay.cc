#include "core/replay.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "core/evasion/registry.h"
#include "obs/obs.h"

namespace liberate::core {

using netsim::Duration;
using netsim::seconds;
using netsim::TimePoint;
using stack::Host;
using stack::OsProfile;
using stack::TcpConnection;
using trace::ApplicationTrace;
using trace::Sender;

namespace {

constexpr std::uint32_t kClientIp = 0x0a000001;   // 10.0.0.1
constexpr std::uint32_t kServerIp = 0xc6336414;   // 198.51.100.20 (default)

/// Index of the first client message containing a matching snippet (or 0).
std::size_t match_message_index(const ApplicationTrace& trace,
                                const std::vector<Bytes>& snippets) {
  for (std::size_t i = 0; i < trace.messages.size(); ++i) {
    const auto& m = trace.messages[i];
    if (m.sender != Sender::kClient) continue;
    if (snippets.empty()) return i;
    if (contains_matching_field(BytesView(m.payload), snippets)) return i;
  }
  return 0;
}

/// The round's pauses around the matching message: the caller's plus the
/// technique's flushing pauses.
TimingPlan round_pauses(const ReplayOptions& options) {
  TimingPlan pauses{options.pause_before_match_s,
                    options.pause_after_match_s};
  if (options.technique != nullptr) {
    const TimingPlan plan = options.technique->timing(options.context);
    pauses.pause_before_match_s += plan.pause_before_match_s;
    pauses.pause_after_match_s += plan.pause_after_match_s;
  }
  return pauses;
}

/// One side of a TCP replay: walks the message list in order, sending its
/// own messages (with per-message delays) and consuming/verifying the
/// peer's.
struct TcpReplaySide {
  const ApplicationTrace* trace = nullptr;
  Sender role = Sender::kClient;
  TcpConnection* conn = nullptr;
  netsim::EventLoop* loop = nullptr;
  const std::vector<Duration>* extra_delay = nullptr;  // per message index

  std::size_t next = 0;
  Bytes rx;
  bool mismatch = false;
  bool send_scheduled = false;
  bool established = false;

  // Liveness token for delayed sends: the loop outlives this round, so a
  // timer still pending when the round ends (reset, deadline) must expire
  // with the side, not fire into a dead frame next round.
  std::shared_ptr<char> alive = std::make_shared<char>(0);

  // s2c goodput bookkeeping (client side only).
  TimePoint first_peer_byte = 0;
  TimePoint last_peer_byte = 0;
  std::uint64_t peer_bytes = 0;

  bool done() const { return next >= trace->messages.size(); }

  void on_data(BytesView data) {
    if (peer_bytes == 0) first_peer_byte = loop->now();
    last_peer_byte = loop->now();
    peer_bytes += data.size();
    rx.insert(rx.end(), data.begin(), data.end());
    advance();
  }

  void advance() {
    if (!established || conn == nullptr) return;
    while (!done()) {
      const trace::Message& msg = trace->messages[next];
      if (msg.sender == role) {
        if (send_scheduled) return;
        Duration delay = msg.gap_us;
        if (extra_delay != nullptr && next < extra_delay->size()) {
          delay += (*extra_delay)[next];
        }
        if (delay > 0) {
          send_scheduled = true;
          std::size_t idx = next;
          loop->schedule(delay, [this, idx,
                                 alive_w = std::weak_ptr<char>(alive)]() {
            if (alive_w.expired()) return;
            send_scheduled = false;
            if (next == idx && !done() && conn != nullptr &&
                conn->state() != TcpConnection::State::kClosed) {
              conn->send(BytesView(trace->messages[idx].payload));
              next = idx + 1;
              advance();
            }
          });
          return;
        }
        conn->send(BytesView(msg.payload));
        next += 1;
        continue;
      }
      // Peer's message: consume once fully received, verifying content.
      if (rx.size() < msg.payload.size()) return;
      if (!std::equal(msg.payload.begin(), msg.payload.end(), rx.begin())) {
        mismatch = true;
      }
      rx.erase(rx.begin(),
               rx.begin() + static_cast<std::ptrdiff_t>(msg.payload.size()));
      next += 1;
    }
  }
};

}  // namespace

ReplayRunner::ReplayRunner(dpi::Environment& env, std::uint64_t seed)
    : env_(env), rng_(seed) {}

ReplayOutcome ReplayRunner::run(const ApplicationTrace& trace,
                                const ReplayOptions& options) {
  rounds_ += 1;
  bytes_offered_ += trace.total_bytes();
  LIBERATE_COUNTER_ADD("core.replay_rounds", 1);
  LIBERATE_COUNTER_ADD("core.replay_bytes_offered", trace.total_bytes());
  // The cost ledger's round chokepoint: every replay — scheduler-driven or
  // direct — lands here, attributed to the caller's ambient phase.
  LIBERATE_COST_TICK(kRounds, 1);
  [[maybe_unused]] netsim::EventLoop* loop = &env_.loop;
  LIBERATE_OBS_SPAN("core.replay", [loop]() { return loop->now(); });
  if (trace.transport == trace::Transport::kTcp) {
    return run_tcp(trace, options);
  }
  return run_udp(trace, options);
}

RoundResult ReplayRunner::run(const RoundRequest& request) {
  ReplayOptions opts;
  if (!request.technique.empty()) {
    retired_techniques_.push_back(make_technique(request.technique));
    opts.technique = retired_techniques_.back().get();
  }
  opts.context = request.context;
  opts.server_port_override = request.server_port_override;
  opts.server_ip_override = request.server_ip_override;
  opts.match_packet_ttl = request.match_packet_ttl;
  opts.pause_before_match_s = request.pause_before_match_s;
  opts.pause_after_match_s = request.pause_after_match_s;
  opts.timeout = static_cast<netsim::Duration>(request.timeout_s * 1e6);

  const TimePoint start = env_.loop.now();
  RoundResult result;
  result.outcome = run(request.trace, opts);
  result.differentiated = differentiated(result.outcome);
  result.virtual_seconds = netsim::to_seconds(env_.loop.now() - start);
  result.bytes_offered = request.trace.total_bytes();
  return result;
}

std::vector<RoundResult> ReplayRunner::run_batch(
    const std::vector<RoundRequest>& wave, const Stop& stop) {
  std::vector<RoundResult> results;
  results.reserve(wave.size());
  for (const RoundRequest& request : wave) {
    results.push_back(run(request));
    if (stop && stop(results.size() - 1, results.back())) break;
  }
  return results;
}

ReplayRunner::Round ReplayRunner::open_round(const ReplayOptions& options,
                                             std::uint32_t server_ip) {
  Round round;
  round.shim = std::make_unique<EvasionShim>(
      env_.net.client_port(), options.technique, options.context);
  round.shim->set_match_packet_ttl(options.match_packet_ttl);
  round.client = std::make_unique<Host>(*round.shim, kClientIp,
                                        OsProfile::linux_profile());
  round.server = std::make_unique<Host>(env_.net.server_port(), server_ip,
                                        env_.server_os);
  env_.net.attach_client(round.client.get());
  env_.net.attach_server(round.server.get());
  if (env_.dpi != nullptr) {
    round.usage_before = env_.dpi->usage_counter_bytes();
    round.log_before = env_.dpi->engine().log().size();
  }
  return round;
}

void ReplayRunner::read_meter(const Round& round, ReplayOutcome& outcome) {
  // Zero-rating meter (lagging, polluted by background traffic — §6.2).
  if (env_.dpi == nullptr) return;
  std::uint64_t delta = env_.dpi->usage_counter_bytes() - round.usage_before;
  if (env_.signal == dpi::Environment::Signal::kZeroRating) {
    delta += rng_.below(25 * 1024);
  }
  outcome.usage_delta = delta;
  const auto& log = env_.dpi->engine().log();
  outcome.classifications.assign(
      log.begin() + static_cast<std::ptrdiff_t>(round.log_before), log.end());
}

void ReplayRunner::retire(Round round, Duration drain) {
  // Loop callbacks may still reference the endpoints: drain briefly, then
  // keep them alive with the runner.
  env_.loop.run_for(drain);
  env_.net.attach_client(nullptr);
  env_.net.attach_server(nullptr);
  retired_hosts_.push_back(std::move(round.client));
  retired_hosts_.push_back(std::move(round.server));
  retired_shims_.push_back(std::move(round.shim));
}

ReplayOutcome ReplayRunner::run_tcp(const ApplicationTrace& trace,
                                    const ReplayOptions& options) {
  ReplayOutcome outcome;
  outcome.expected_wire_bytes = trace.total_bytes();

  const std::uint16_t server_port = options.server_port_override
                                        ? options.server_port_override
                                        : trace.server_port;
  const std::uint32_t server_ip =
      options.server_ip_override ? options.server_ip_override : kServerIp;
  const std::uint16_t client_port = next_client_port_++;
  if (next_client_port_ < 42001) next_client_port_ = 42001;

  // Fresh endpoints for this round.
  Round round = open_round(options, server_ip);
  if (env_.pre_middlebox_tap != nullptr) env_.pre_middlebox_tap->clear();

  // Per-message extra delays implementing the flushing pauses.
  std::vector<Duration> extra_delay(trace.messages.size(), 0);
  {
    const TimingPlan pauses = round_pauses(options);
    const double before_s = pauses.pause_before_match_s;
    const double after_s = pauses.pause_after_match_s;
    std::size_t match_idx =
        match_message_index(trace, options.context.matching_snippets);
    if (before_s > 0 && match_idx < extra_delay.size()) {
      extra_delay[match_idx] += static_cast<Duration>(before_s * 1e6);
    }
    if (after_s > 0 && match_idx + 1 < extra_delay.size()) {
      extra_delay[match_idx + 1] += static_cast<Duration>(after_s * 1e6);
    }
  }

  TcpReplaySide client_side;
  client_side.trace = &trace;
  client_side.role = Sender::kClient;
  client_side.loop = &env_.loop;
  client_side.extra_delay = &extra_delay;

  TcpReplaySide server_side;
  server_side.trace = &trace;
  server_side.role = Sender::kServer;
  server_side.loop = &env_.loop;
  server_side.extra_delay = &extra_delay;

  bool client_reset = false;
  bool server_reset = false;
  TcpConnection* server_conn = nullptr;

  round.server->tcp_listen(server_port, [&](TcpConnection& c) {
    server_conn = &c;
    server_side.conn = &c;
    server_side.established = true;
    c.on_data([&](BytesView d) { server_side.on_data(d); });
    c.on_reset([&] { server_reset = true; });
    server_side.advance();
  });

  TcpConnection& conn =
      round.client->tcp_connect(server_ip, server_port, client_port);
  outcome.flow = conn.tuple();
  client_side.conn = &conn;
  conn.on_data([&](BytesView d) { client_side.on_data(d); });
  conn.on_reset([&] { client_reset = true; });
  conn.on_established([&] {
    client_side.established = true;
    client_side.advance();
  });

  // Deadline generous enough for shaping rates and configured pauses.
  double pause_total_s = 0;
  for (Duration d : extra_delay) pause_total_s += netsim::to_seconds(d);
  double transfer_budget_s =
      static_cast<double>(trace.total_bytes()) * 8.0 / 1.0e6 + 10.0;
  TimePoint start = env_.loop.now();
  TimePoint deadline =
      start + options.timeout +
      static_cast<Duration>((pause_total_s + transfer_budget_s) * 1e6);

  while (env_.loop.now() < deadline) {
    if (client_side.done() && server_side.done()) break;
    if (client_reset || server_reset) break;
    env_.loop.run_for(netsim::milliseconds(200));
  }

  outcome.completed = client_side.done() && server_side.done();
  outcome.payload_intact = !client_side.mismatch && !server_side.mismatch;
  outcome.duration_s = netsim::to_seconds(env_.loop.now() - start);
  if (client_side.peer_bytes > 0 &&
      client_side.last_peer_byte > client_side.first_peer_byte) {
    double window_s = netsim::to_seconds(client_side.last_peer_byte -
                                         client_side.first_peer_byte);
    outcome.goodput_mbps =
        8.0 * static_cast<double>(client_side.peer_bytes) / window_s / 1e6;
  }

  // Blocking signals.
  if (client_side.mismatch) {
    std::string got = to_string(BytesView(client_side.rx));
    // The rx buffer was partially consumed; also scan what remains.
    if (got.find("403 Forbidden") != std::string::npos) {
      outcome.got_403 = true;
    }
  }
  for (BytesView d : round.client->raw_received()) {
    auto p = netsim::parse_packet(d);
    if (!p.ok() || !p.value().is_tcp()) continue;
    const auto& pv = p.value();
    if (pv.tcp->rst() && pv.tcp->dst_port == client_port) {
      outcome.rsts_at_client += 1;
    }
    if (!pv.tcp->payload.empty()) {
      std::string s = to_string(pv.tcp->payload);
      if (s.find("403 Forbidden") != std::string::npos) {
        outcome.got_403 = true;
      }
    }
  }
  outcome.blocked =
      (!outcome.completed &&
       (client_reset || server_reset || outcome.rsts_at_client > 0)) ||
      outcome.got_403;

  // RS?: crafted packets on the server's wire.
  for (BytesView d : round.server->raw_received()) {
    auto p = netsim::parse_ipv4(d);
    if (!p.ok()) continue;
    if (p.value().identification == kCraftedIpId) {
      outcome.crafted_at_server += 1;
      if (!p.value().is_fragment() && p.value().payload.size() > 60) {
        // A single large non-fragment crafted datagram where fragments were
        // sent implies mid-path reassembly; callers interpret with context.
        outcome.crafted_reassembled = true;
      }
    }
  }

  read_meter(round, outcome);

  // Teardown: abort whatever is still open, then retire the round.
  if (conn.state() != TcpConnection::State::kClosed) conn.abort();
  if (server_conn != nullptr &&
      server_conn->state() != TcpConnection::State::kClosed) {
    server_conn->abort();
  }
  retire(std::move(round), seconds(3));
  return outcome;
}

ReplayOutcome ReplayRunner::run_udp(const ApplicationTrace& trace,
                                    const ReplayOptions& options) {
  ReplayOutcome outcome;
  outcome.expected_wire_bytes = trace.total_bytes();

  const std::uint16_t server_port = options.server_port_override
                                        ? options.server_port_override
                                        : trace.server_port;
  const std::uint32_t server_ip =
      options.server_ip_override ? options.server_ip_override : kServerIp;
  const std::uint16_t client_port = next_client_port_++;

  Round round = open_round(options, server_ip);

  outcome.flow = netsim::FiveTuple{
      kClientIp, server_ip, client_port, server_port,
      static_cast<std::uint8_t>(netsim::IpProto::kUdp)};

  auto& client_sock = round.client->udp_bind(client_port);
  auto& server_sock = round.server->udp_bind(server_port);

  // Receivers tolerate reordering: each datagram is matched against the set
  // of still-pending messages from the peer.
  struct UdpSide {
    std::vector<const trace::Message*> pending_from_peer;
    std::size_t mismatches = 0;
    std::uint64_t bytes = 0;
    TimePoint first = 0, last = 0;
  };
  UdpSide at_client, at_server;
  for (const auto& m : trace.messages) {
    if (m.sender == Sender::kServer) {
      at_client.pending_from_peer.push_back(&m);
    } else {
      at_server.pending_from_peer.push_back(&m);
    }
  }
  auto consume = [this](UdpSide& side, const Bytes& payload) {
    if (side.bytes == 0) side.first = env_.loop.now();
    side.last = env_.loop.now();
    side.bytes += payload.size();
    for (auto it = side.pending_from_peer.begin();
         it != side.pending_from_peer.end(); ++it) {
      if ((*it)->payload == payload) {
        side.pending_from_peer.erase(it);
        return;
      }
    }
    side.mismatches += 1;  // crafted dummy or corrupted datagram
  };
  client_sock.on_receive([&](const stack::UdpSocket::Incoming& in) {
    consume(at_client, in.payload);
  });
  server_sock.on_receive([&](const stack::UdpSocket::Incoming& in) {
    consume(at_server, in.payload);
  });

  // Schedule all sends at their cumulative offsets (pauses included).
  std::size_t match_idx =
      match_message_index(trace, options.context.matching_snippets);
  const TimingPlan pauses = round_pauses(options);
  Duration at = netsim::milliseconds(1);
  for (std::size_t i = 0; i < trace.messages.size(); ++i) {
    const trace::Message& m = trace.messages[i];
    at += m.gap_us;
    if (i == match_idx) {
      at += static_cast<Duration>(pauses.pause_before_match_s * 1e6);
    }
    if (i == match_idx + 1) {
      at += static_cast<Duration>(pauses.pause_after_match_s * 1e6);
    }
    if (m.sender == Sender::kClient) {
      env_.loop.schedule(at, [&client_sock, &m, server_port, server_ip]() {
        client_sock.send_to(server_ip, server_port, BytesView(m.payload));
      });
    } else {
      env_.loop.schedule(at, [&server_sock, &m, client_port]() {
        server_sock.send_to(kClientIp, client_port, BytesView(m.payload));
      });
    }
  }

  TimePoint start = env_.loop.now();
  TimePoint deadline = start + options.timeout + at;
  while (env_.loop.now() < deadline) {
    if (at_client.pending_from_peer.empty() &&
        at_server.pending_from_peer.empty()) {
      break;
    }
    env_.loop.run_for(netsim::milliseconds(200));
  }

  outcome.completed = at_client.pending_from_peer.empty() &&
                      at_server.pending_from_peer.empty();
  outcome.payload_intact = outcome.completed;
  outcome.duration_s = netsim::to_seconds(env_.loop.now() - start);
  if (at_client.bytes > 0 && at_client.last > at_client.first) {
    outcome.goodput_mbps = 8.0 * static_cast<double>(at_client.bytes) /
                           netsim::to_seconds(at_client.last - at_client.first) /
                           1e6;
  }
  for (BytesView d : round.server->raw_received()) {
    auto p = netsim::parse_ipv4(d);
    if (p.ok() && p.value().identification == kCraftedIpId) {
      outcome.crafted_at_server += 1;
    }
  }
  read_meter(round, outcome);
  retire(std::move(round), seconds(1));
  return outcome;
}

bool ReplayRunner::differentiated(const ReplayOutcome& outcome) const {
  switch (env_.signal) {
    case dpi::Environment::Signal::kDirect:
      return env_.dpi != nullptr &&
             env_.dpi->treats(outcome.flow, env_.loop.now());
    case dpi::Environment::Signal::kZeroRating:
      return outcome.usage_delta < outcome.expected_wire_bytes / 2;
    case dpi::Environment::Signal::kThroughput:
      return outcome.goodput_mbps > 0 && outcome.goodput_mbps < 2.0;
    case dpi::Environment::Signal::kBlocking:
      return outcome.blocked;
    case dpi::Environment::Signal::kNone:
      return false;
  }
  return false;
}

}  // namespace liberate::core
