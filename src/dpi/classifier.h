// classifier.h — the DPI engine.
//
// A ClassifierConfig captures the *implementation quirks* that the paper
// exposes per middlebox, so that every Table 3 outcome emerges from mechanism
// rather than from a lookup table:
//
//   * which packet anomalies the classifier validates (and therefore which
//     crafted invalid packets it silently skips vs. happily inspects);
//   * whether it matches per packet (testbed, Iran) or over a reassembled
//     byte stream (T-Mobile, GFC), and whether stream reassembly handles
//     out-of-order segments (GFC yes, T-Mobile no);
//   * whether stream reassembly is GET-anchored (T-Mobile only reassembles
//     flows whose first payload bytes are "GET");
//   * whether flows are tracked only from their SYN (mid-flow packets on
//     unknown flows ignored — GFC resync behaviour, also the testbed);
//   * how many payload packets per direction it inspects before giving up
//     (5 on the testbed and T-Mobile; unlimited for GFC and Iran);
//   * match-and-forget vs. inspect-every-packet (Iran);
//   * TCP sequence validation (GFC and T-Mobile check the window; the
//     testbed and Iran do not);
//   * how classification state is retained: fixed result timeouts (testbed:
//     120 s, 10 s after a RST), flush-everything-on-RST (T-Mobile),
//     inspection-state-flush-but-blocks-persist (GFC), and load-dependent
//     idle eviction (GFC, Figure 4).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dpi/match_program.h"
#include "dpi/rules.h"
#include "netsim/network.h"
#include "netsim/packet.h"
#include "netsim/validation.h"

namespace liberate::dpi {

struct ClassifierConfig {
  std::string name;

  /// Anomalies the classifier validates: packets exhibiting any of these are
  /// skipped (not inspected — they still traverse the path).
  netsim::AnomalySet validated_anomalies = 0;

  /// TCP flows are tracked only from their SYN; mid-flow packets on unknown
  /// flows are ignored entirely.
  bool requires_syn = true;

  /// Once classified, stop inspecting (result sticky until flushed). False
  /// models Iran: every packet inspected, classification is per packet.
  bool match_and_forget = true;

  enum class Mode { kPerPacket, kStream };
  Mode mode = Mode::kPerPacket;

  /// Stream mode: reassemble only if the client's stream starts with one of
  /// these prefixes (T-Mobile quirk: "GET" for HTTP, the TLS handshake
  /// record header \x16\x03 for HTTPS). Empty = no anchor requirement.
  /// Prepending a single dummy byte defeats anchored reassembly (§6.2).
  std::vector<std::string> stream_anchor_prefixes;

  /// Stream mode: buffer out-of-order segments (GFC) or silently drop bytes
  /// that don't arrive in sequence (T-Mobile).
  bool stream_handles_out_of_order = false;

  /// Stream mode: how a retransmitted segment whose range was already
  /// assembled is resolved — the Ptacek/Newsham segment-overlap ambiguity the
  /// fingerprint subsystem probes (docs/fingerprinting.md):
  ///   * kIgnore    — overlapping segments are discarded wholesale; only the
  ///     tail beyond next_seq would be new, and it is dropped with the rest
  ///     (the historical behaviour of this engine, and the default);
  ///   * kFirstWins — already-assembled bytes stand, but a tail extending
  ///     past next_seq is appended (Zeek-style first-copy semantics);
  ///   * kLastWins  — the retransmission overwrites the overlapped window
  ///     and any tail is appended (Suricata "overlap: last" targets).
  enum class StreamOverlap { kIgnore, kFirstWins, kLastWins };
  StreamOverlap stream_overlap = StreamOverlap::kIgnore;

  /// Honour the TCP urgent pointer by removing the out-of-band byte from the
  /// inspected stream (as a strict receiver would before the data reaches the
  /// application). False = urgent byte inspected inline with the rest.
  bool strip_urgent_bytes = false;

  /// Inspect at most this many payload-carrying packets per direction
  /// (0 = unlimited).
  std::size_t packet_inspection_limit = 0;

  bool inspect_udp = false;

  /// Testbed quirk (Table 3 note 1): parse the transport header even when
  /// the IP protocol number is wrong, associating the packet with an
  /// existing tracked flow.
  bool parse_transport_despite_wrong_protocol = false;

  /// Only flows to these ports are inspected at all (empty = all ports).
  std::set<std::uint16_t> only_ports;

  /// Validate TCP sequence numbers against the expected window; out-of-
  /// window segments are skipped.
  bool validate_tcp_seq = false;
  std::uint32_t seq_window = 65535;

  /// Classification result lifetime (testbed: 120 s). nullopt = forever.
  std::optional<netsim::Duration> result_timeout;
  /// Seeing a RST discards the flow's inspection state (T-Mobile, GFC, and
  /// the testbed — a RST is a teardown signal everywhere we measured).
  bool flush_flow_on_rst = false;
  /// When flushing on RST, keep an existing classification result alive in a
  /// side cache for this long (testbed: "the timeout is reduced to 10
  /// seconds after the classifier sees a RST", §6.1). nullopt = the result
  /// dies with the flow (T-Mobile: flushed immediately).
  std::optional<netsim::Duration> result_cache_after_rst;
  /// A flow already subjected to a *blocking* action stays blocked even if
  /// its inspection state is flushed (GFC: RST after classification has no
  /// observable effect).
  bool block_survives_flush = true;

  /// Idle flow-state eviction threshold as a function of (virtual) time of
  /// day; unset = no idle eviction. Models the GFC's busier-hours-flush-
  /// sooner behaviour behind Figure 4.
  std::function<netsim::Duration(netsim::TimePoint)> idle_eviction_threshold;

  /// Cap on reassembled stream bytes retained per direction.
  std::size_t stream_buffer_cap = 16 * 1024;
};

/// Per-flow classifier state.
struct FlowState {
  netsim::TimePoint created = 0;
  netsim::TimePoint last_seen = 0;
  bool saw_syn = false;
  bool rst_seen = false;

  struct DirState {
    std::size_t payload_packets = 0;   // inspected payload packets
    bool seq_initialized = false;
    std::uint32_t next_seq = 0;        // expected next sequence number
    // Stream-mode reassembly.
    std::uint32_t stream_base = 0;  // seq of assembled[0] (overlap rewrites)
    Bytes assembled;
    std::map<std::uint32_t, Bytes> out_of_order;
    bool anchor_evaluated = false;
    bool anchor_ok = true;
    bool gave_up = false;  // inspection limit reached without a match
  };
  DirState dirs[2];  // [0]=client->server, [1]=server->client

  std::optional<std::string> result;       // active traffic class
  const MatchRule* matched_rule = nullptr;
  netsim::TimePoint result_at = 0;
  std::optional<netsim::TimePoint> result_expires;

  bool blocked = false;  // a blocking action fired on this flow
};

/// Outcome of pushing one packet through the engine.
struct Inspection {
  /// The classifier actually looked at this packet's content.
  bool processed = false;
  /// Packet was skipped due to a validated anomaly.
  bool skipped_invalid = false;
  /// Active classification for the flow at this instant (after processing).
  std::optional<std::string> traffic_class;
  const MatchRule* rule = nullptr;
  /// This very packet triggered the classification.
  bool newly_classified = false;
  /// The flow has a sticky "blocked" mark (set by the middlebox action).
  bool flow_blocked = false;
  /// Flow key in client->server orientation (valid when a flow was tracked).
  netsim::FiveTuple flow;
  bool has_flow = false;
};

/// A recorded classification event (the testbed middlebox "shows the result
/// of classification immediately" — tests and benches read this log).
struct ClassificationEvent {
  netsim::TimePoint at;
  netsim::FiveTuple flow;
  std::string traffic_class;
  std::string rule_name;
};

class DpiEngine {
 public:
  DpiEngine(ClassifierConfig config, std::vector<MatchRule> rules)
      : config_(std::move(config)),
        rules_(std::move(rules)),
        program_(MatchProgram::compile_cached(rules_)) {}

  /// Push one packet (as seen on the wire) through the classifier.
  Inspection inspect(const netsim::PacketView& pkt, netsim::Direction dir,
                     netsim::TimePoint now);

  /// Mark a flow as blocked (called by the middlebox when it applies a
  /// blocking action). Survives inspection-state flushes when configured.
  void mark_blocked(const netsim::FiveTuple& flow);

  /// The class whose policy currently applies to `flow` (result or cached
  /// result, expiry-checked at `now`) — the "what does the middlebox think
  /// right now" probe used by the testbed's direct signal.
  std::optional<std::string> active_class_now(const netsim::FiveTuple& flow,
                                              netsim::TimePoint now);

  const ClassifierConfig& config() const { return config_; }
  const std::vector<ClassificationEvent>& log() const { return log_; }
  std::size_t tracked_flows() const { return flows_.size(); }
  void clear_log() { log_.clear(); }

  /// Swap the rule set at runtime (classifier-rule-change adaptation tests).
  /// Recompiles the match program (memoized — swapping back and forth
  /// between rule sets reuses previously compiled programs).
  void set_rules(std::vector<MatchRule> rules) {
    rules_ = std::move(rules);
    program_ = MatchProgram::compile_cached(rules_);
  }
  const std::vector<MatchRule>& rules() const { return rules_; }
  /// The compiled program evaluating rules() (shared across engines with
  /// identical rule sets).
  const MatchProgram& program() const { return *program_; }
  /// Swap the implementation quirks at runtime — countermeasure experiments
  /// ("a network could detect and filter lib·erate's inert packets", §4.3).
  /// Existing flow state is kept; new packets are judged under the new
  /// config.
  void set_config(ClassifierConfig config) { config_ = std::move(config); }

 private:
  FlowState* lookup(const netsim::FiveTuple& key, netsim::TimePoint now,
                    bool create);
  Inspection inspect_tcp(const netsim::TcpView& tcp, bool client_to_server,
                         const netsim::FiveTuple& key, netsim::TimePoint now);
  Inspection inspect_udp(const netsim::PacketView& pkt, bool client_to_server,
                         const netsim::FiveTuple& key, netsim::TimePoint now);
  void run_match(FlowState& fs, BytesView content, const RuleContext& ctx,
                 const netsim::FiveTuple& key, netsim::TimePoint now,
                 Inspection* out);
  Inspection finish(FlowState* fs, const netsim::FiveTuple& key,
                    netsim::TimePoint now, Inspection partial);

  ClassifierConfig config_;
  std::vector<MatchRule> rules_;
  std::shared_ptr<const MatchProgram> program_;  // compiled from rules_
  MatchProgram::Scratch match_scratch_;          // per-engine, reused per eval
  std::map<netsim::FiveTuple, FlowState> flows_;
  std::set<netsim::FiveTuple> blocked_flows_;  // survives state flushes
  struct CachedResult {
    std::string traffic_class;
    netsim::TimePoint expires;
  };
  std::map<netsim::FiveTuple, CachedResult> result_cache_;
  std::vector<ClassificationEvent> log_;
};

}  // namespace liberate::dpi
