// middlebox.h — in-path elements built around the DPI engine.
//
//  * DpiMiddlebox — classifier + policy actions (throttle / block / zero-
//    rate), GFC-style endpoint escalation, RST/403 injection.
//  * ConntrackFilter — carrier-network stateful firewall: drops malformed
//    packets and out-of-window TCP segments. Models the observation (§6.2,
//    §7) that "many of the inert packets that worked in our testbed were
//    dropped in every operational network we tested".
//  * ReassemblyElement — mid-path IP fragment reassembly (Table 3 note 2:
//    "the fragmented packets are reassembled before reaching the server" on
//    T-Mobile and the GFC paths).
//  * TransparentHttpProxy — AT&T Stream Saver: a TCP-terminating HTTP proxy
//    on port 80 that classifies request keywords and response Content-Type
//    and paces classified flows; every packet-level evasion necessarily
//    fails against it (§6.3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "dpi/classifier.h"
#include "netsim/network.h"
#include "stack/ip_reassembly.h"
#include "util/rng.h"

namespace liberate::dpi {

/// What a middlebox does to flows of a given traffic class.
struct PolicyAction {
  /// Exempt the flow's bytes from the user's data-usage counter (T-Mobile
  /// Binge On / Music Freedom).
  bool zero_rate = false;
  /// Pace the flow to this rate (T-Mobile 1.5 Mbps for video; AT&T Stream
  /// Saver 1.5 Mbps).
  std::optional<double> throttle_bytes_per_sec;
  std::size_t throttle_queue_bytes = 96 * 1024;
  /// Kill the flow: inject RSTs toward both endpoints (GFC: 3–5 RSTs; Iran:
  /// a 403 page plus 2 RSTs).
  bool block = false;
  int rst_count_min = 3;
  int rst_count_max = 5;
  bool send_403 = false;
  /// Drop the packet that triggered the match (in-path censor) rather than
  /// forwarding it (on-path injector like the GFC).
  bool drop_matching_packet = false;
};

struct MiddleboxConfig {
  ClassifierConfig classifier;
  std::vector<MatchRule> rules;
  std::map<std::string, PolicyAction> actions;  // traffic_class -> action

  /// §4.2 countermeasure: do not differentiate traffic to these (known
  /// lib·erate replay-server) addresses. Defeated by previously unseen
  /// servers — see detect_differentiation_robust.
  std::set<std::uint32_t> whitelisted_server_ips;

  /// GFC behaviour: after `escalation_threshold` blocked flows to the same
  /// (server, port), block that endpoint entirely for `escalation_duration`.
  bool endpoint_escalation = false;
  int escalation_threshold = 2;
  netsim::Duration escalation_duration = netsim::minutes(5);

  std::uint64_t seed = 1234;
};

class DpiMiddlebox : public netsim::PathElement {
 public:
  explicit DpiMiddlebox(MiddleboxConfig config)
      : config_(std::move(config)),
        engine_(config_.classifier, config_.rules),
        rng_(config_.seed) {}

  void process(Bytes datagram, netsim::Direction dir,
               netsim::ElementIo& io) override;
  std::string name() const override {
    return "dpi:" + config_.classifier.name;
  }

  DpiEngine& engine() { return engine_; }
  const MiddleboxConfig& config() const { return config_; }

  /// Does the policy currently treat `flow` (block, zero-rate or throttle)?
  /// The direct differentiation signal: the flow's active class, expiry-
  /// checked at `now`, and that class's action.
  bool treats(const netsim::FiveTuple& flow, netsim::TimePoint now);

  /// Data-usage accounting (the observable T-Mobile zero-rating signal).
  std::uint64_t usage_counter_bytes() const { return usage_counter_bytes_; }
  std::uint64_t zero_rated_bytes() const { return zero_rated_bytes_; }
  std::uint64_t rsts_injected() const { return rsts_injected_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::size_t blocked_endpoints() const { return endpoint_blocklist_.size(); }

 private:
  struct EndpointKey {
    std::uint32_t ip;
    std::uint16_t port;
    auto operator<=>(const EndpointKey&) const = default;
  };

  void apply_block(const netsim::PacketView& pkt, netsim::Direction dir,
                   netsim::ElementIo& io, const PolicyAction& action,
                   bool drop_packet);
  void inject_rsts(const netsim::PacketView& pkt, netsim::Direction dir,
                   netsim::ElementIo& io, int count, bool packet_forwarded,
                   std::size_t extra_client_bytes);

  MiddleboxConfig config_;
  DpiEngine engine_;
  Rng rng_;

  // One shaping queue per throttled class (shared across directions;
  // upstream traffic is negligible next to the throttled downstream).
  std::map<std::string, netsim::ShapingQueue> pace_;

  std::map<EndpointKey, int> endpoint_hits_;
  std::map<EndpointKey, netsim::TimePoint> endpoint_blocklist_;  // expiry

  std::uint64_t usage_counter_bytes_ = 0;
  std::uint64_t zero_rated_bytes_ = 0;
  std::uint64_t rsts_injected_ = 0;
  std::uint64_t packets_dropped_ = 0;
};

/// Stateful carrier firewall.
class ConntrackFilter : public netsim::PathElement {
 public:
  explicit ConntrackFilter(netsim::ValidationPolicy drop_policy,
                           bool validate_seq = true)
      : policy_(drop_policy), validate_seq_(validate_seq) {}

  void process(Bytes datagram, netsim::Direction dir,
               netsim::ElementIo& io) override;
  std::string name() const override { return "conntrack"; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct SeqState {
    bool init[2] = {false, false};
    std::uint32_t next[2] = {0, 0};
  };
  netsim::ValidationPolicy policy_;
  bool validate_seq_;
  std::map<netsim::FiveTuple, SeqState> flows_;
  std::uint64_t dropped_ = 0;
};

/// Mid-path IP fragment reassembly.
class ReassemblyElement : public netsim::PathElement {
 public:
  ReassemblyElement() = default;
  /// Reassemble with an explicit conflicting-overlap policy — how the new
  /// classifier profiles (Suricata/Zeek/conntrack-style) get their distinct
  /// fragment-ambiguity resolutions.
  explicit ReassemblyElement(stack::ReassemblyPolicy policy)
      : reassembler_{stack::IpReassembler(policy),
                     stack::IpReassembler(policy)} {}
  void process(Bytes datagram, netsim::Direction dir,
               netsim::ElementIo& io) override;
  std::string name() const override { return "reassembler"; }

 private:
  stack::IpReassembler reassembler_[2];  // per direction
};

/// AT&T Stream Saver: transparent TCP-terminating HTTP proxy on port 80.
class TransparentHttpProxy : public netsim::PathElement {
 public:
  struct Config {
    std::uint16_t port = 80;
    /// Request keywords that mark the flow as inspectable HTTP.
    std::vector<std::string> request_keywords{"GET", "HTTP/1.1"};
    /// Response Content-Type prefix that triggers throttling.
    std::string content_type_keyword = "video";
    double throttle_bytes_per_sec = 1.5e6 / 8;  // "DVD quality": 1.5 Mbps
    std::size_t mss = 1400;
  };

  explicit TransparentHttpProxy(Config config) : config_(std::move(config)) {}

  void process(Bytes datagram, netsim::Direction dir,
               netsim::ElementIo& io) override;
  std::string name() const override { return "proxy:att"; }

  std::uint64_t sessions_opened() const { return sessions_opened_; }
  std::uint64_t throttled_sessions() const { return throttled_sessions_; }
  std::uint64_t crafted_packets_absorbed() const { return absorbed_; }

 private:
  struct Session {
    // Client side: we impersonate the server.
    std::uint32_t client_ip, server_ip;
    std::uint16_t client_port, server_port;
    std::uint32_t c_rcv_nxt = 0;  // next byte expected from client
    std::uint32_t c_snd_seq = 0;  // our next seq toward client
    bool client_established = false;
    bool client_fin_seen = false;
    bool client_fin_relayed = false;
    // Server side: we impersonate the client.
    std::uint32_t s_rcv_nxt = 0;
    std::uint32_t s_snd_seq = 0;
    bool server_established = false;
    bool server_syn_sent = false;
    bool server_fin_seen = false;
    Bytes pending_to_server;  // client data awaiting server handshake
    // Classification.
    Bytes request_head;
    Bytes response_head;
    bool is_http = false;
    bool throttled = false;
    // Pacing toward the client.
    netsim::TimePoint busy_until = 0;
    bool dead = false;
  };

  using SessionKey = netsim::FiveTuple;  // client -> server orientation

  void handle_client_packet(Session& s, const netsim::PacketView& pkt,
                            netsim::ElementIo& io);
  void handle_server_packet(Session& s, const netsim::PacketView& pkt,
                            netsim::ElementIo& io);
  void relay_to_server(Session& s, BytesView data, netsim::ElementIo& io,
                       netsim::Direction io_dir);
  void relay_to_client(Session& s, BytesView data, netsim::ElementIo& io,
                       netsim::Direction io_dir);
  // `io_dir` is the direction of the packet currently being processed: it
  // decides whether a crafted packet toward an endpoint is a forward() or a
  // send_back() on the transient ElementIo.
  void send_to_client(Session& s, std::uint8_t flags, BytesView payload,
                      netsim::ElementIo& io, netsim::Direction io_dir,
                      netsim::Duration delay = 0);
  void send_to_server(Session& s, std::uint8_t flags, BytesView payload,
                      netsim::ElementIo& io, netsim::Direction io_dir);

  Config config_;
  std::map<SessionKey, Session> sessions_;
  std::uint64_t sessions_opened_ = 0;
  std::uint64_t throttled_sessions_ = 0;
  std::uint64_t absorbed_ = 0;
};

}  // namespace liberate::dpi
