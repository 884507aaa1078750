#include "dpi/classifier.h"

#include <algorithm>

#include "obs/obs.h"

namespace liberate::dpi {

using netsim::Direction;
using netsim::FiveTuple;
using netsim::PacketView;
using netsim::TcpFlags;
using netsim::TimePoint;

namespace {

/// Active (non-expired) result, clearing it lazily on expiry.
std::optional<std::string> active_result(FlowState& fs, TimePoint now) {
  if (fs.result && fs.result_expires && now >= *fs.result_expires) {
    fs.result.reset();
    fs.matched_rule = nullptr;
    fs.result_expires.reset();
    LIBERATE_COUNTER_ADD("dpi.results_expired", 1);
  }
  return fs.result;
}

bool seq_within(std::uint32_t seq, std::uint32_t expected,
                std::uint32_t window) {
  std::int32_t delta = static_cast<std::int32_t>(seq - expected);
  return delta >= -static_cast<std::int64_t>(window) &&
         delta <= static_cast<std::int64_t>(window);
}

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
/// Canonical provenance flow key for a classifier five-tuple.
obs::prov::FlowKey pkey(const FiveTuple& t) {
  return obs::prov::flow_key(t.src_ip, t.src_port, t.dst_ip, t.dst_port,
                             t.protocol);
}
#endif

}  // namespace

FlowState* DpiEngine::lookup(const FiveTuple& key, TimePoint now,
                             bool create) {
  auto it = flows_.find(key);
  if (it != flows_.end()) {
    // Idle eviction (load-dependent for the GFC; fixed 120 s on the testbed).
    if (config_.idle_eviction_threshold) {
      netsim::Duration threshold = config_.idle_eviction_threshold(now);
      if (now - it->second.last_seen > threshold) {
        flows_.erase(it);
        it = flows_.end();
        LIBERATE_COUNTER_ADD("dpi.flows_evicted_idle", 1);
      }
    }
  }
  if (it != flows_.end()) return &it->second;
  if (!create) return nullptr;
  LIBERATE_COUNTER_ADD("dpi.flows_created", 1);
  FlowState& fs = flows_[key];
  fs.created = now;
  fs.last_seen = now;
  return &fs;
}

std::optional<std::string> DpiEngine::active_class_now(const FiveTuple& flow,
                                                       TimePoint now) {
  auto it = flows_.find(flow);
  if (it != flows_.end()) {
    auto result = active_result(it->second, now);
    if (result) return result;
  }
  auto cit = result_cache_.find(flow);
  if (cit != result_cache_.end()) {
    if (now < cit->second.expires) return cit->second.traffic_class;
    result_cache_.erase(cit);
  }
  return std::nullopt;
}

void DpiEngine::mark_blocked(const FiveTuple& flow) {
  if (config_.block_survives_flush) blocked_flows_.insert(flow);
  auto it = flows_.find(flow);
  if (it != flows_.end()) it->second.blocked = true;
}

Inspection DpiEngine::finish(FlowState* fs, const FiveTuple& key,
                             TimePoint now, Inspection partial) {
  partial.flow = key;
  partial.has_flow = fs != nullptr;
  if (fs != nullptr) {
    auto result = active_result(*fs, now);
    if (result && !partial.traffic_class) {
      partial.traffic_class = result;
      partial.rule = fs->matched_rule;
    }
    partial.flow_blocked = partial.flow_blocked || fs->blocked;
  }
  // A result cached across a RST-triggered flush still drives policy until
  // it expires.
  if (!partial.traffic_class) {
    auto it = result_cache_.find(key);
    if (it != result_cache_.end()) {
      if (now < it->second.expires) {
        partial.traffic_class = it->second.traffic_class;
      } else {
        result_cache_.erase(it);
      }
    }
  }
  if (blocked_flows_.contains(key)) partial.flow_blocked = true;
  return partial;
}

Inspection DpiEngine::inspect(const PacketView& pkt, Direction dir,
                              TimePoint now) {
  const bool c2s = dir == Direction::kClientToServer;

  // Fragments with nonzero offset carry no transport header: nothing to
  // associate or match. (First fragments parse normally.)
  if (pkt.ip.fragment_offset_words != 0) return Inspection{};

  // Transport determination, including the testbed's wrong-protocol quirk.
  std::optional<netsim::TcpView> forced_tcp;
  const netsim::TcpView* tcp = pkt.tcp ? &*pkt.tcp : nullptr;
  if (tcp == nullptr && !pkt.udp && !pkt.icmp &&
      config_.parse_transport_despite_wrong_protocol) {
    auto attempt = netsim::parse_tcp(pkt.ip.payload);
    if (attempt.ok()) {
      forced_tcp = std::move(attempt).value();
      tcp = &*forced_tcp;
    }
  }

  // Anomaly validation gate.
  netsim::AnomalySet anomalies = netsim::anomalies_of(pkt);
  if (config_.validated_anomalies & anomalies) {
    LIBERATE_COUNTER_ADD("dpi.packets_skipped_invalid", 1);
    LIBERATE_PROV_NOTE(now, pkey(pkt.five_tuple()), "dpi-skip",
                       obs::fv("reason", "invalid-packet"));
    Inspection out;
    out.skipped_invalid = true;
    return out;
  }

  if (tcp != nullptr) {
    FiveTuple tuple;
    tuple.src_ip = pkt.ip.src;
    tuple.dst_ip = pkt.ip.dst;
    tuple.src_port = tcp->src_port;
    tuple.dst_port = tcp->dst_port;
    tuple.protocol = static_cast<std::uint8_t>(netsim::IpProto::kTcp);
    FiveTuple key = c2s ? tuple : tuple.reversed();
    if (!config_.only_ports.empty() &&
        !config_.only_ports.contains(key.dst_port)) {
      return finish(nullptr, key, now, Inspection{});
    }
    return inspect_tcp(*tcp, c2s, key, now);
  }

  if (pkt.udp) {
    if (!config_.inspect_udp) return Inspection{};
    FiveTuple tuple = pkt.five_tuple();
    FiveTuple key = c2s ? tuple : tuple.reversed();
    if (!config_.only_ports.empty() &&
        !config_.only_ports.contains(key.dst_port)) {
      return finish(nullptr, key, now, Inspection{});
    }
    return inspect_udp(pkt, c2s, key, now);
  }

  return Inspection{};
}

Inspection DpiEngine::inspect_tcp(const netsim::TcpView& tcp, bool c2s,
                                  const FiveTuple& key, TimePoint now) {
  Inspection out;
  out.processed = true;
  LIBERATE_COUNTER_ADD("dpi.packets_inspected", 1);

  // --- RST: flush semantics --------------------------------------------
  if (tcp.rst()) {
    FlowState* fs = lookup(key, now, /*create=*/false);
    if (fs != nullptr && config_.flush_flow_on_rst) {
      // The flow's inspection state dies with the RST. An existing result
      // optionally survives briefly in a side cache (testbed: 10 s).
      if (config_.result_cache_after_rst && active_result(*fs, now)) {
        TimePoint expires = now + *config_.result_cache_after_rst;
        if (fs->result_expires && *fs->result_expires < expires) {
          expires = *fs->result_expires;
        }
        result_cache_[key] = CachedResult{*fs->result, expires};
      }
      flows_.erase(key);
      LIBERATE_COUNTER_ADD("dpi.flows_flushed_rst", 1);
      LIBERATE_PROV_NOTE(now, pkey(key), "dpi-flush",
                         obs::fv("trigger", "rst"));
      return finish(nullptr, key, now, out);
    }
    if (fs != nullptr) {
      fs->rst_seen = true;
      fs->last_seen = now;
    }
    return finish(fs, key, now, out);
  }

  // --- Flow lookup/creation ---------------------------------------------
  const bool is_syn = tcp.syn() && !tcp.ack_flag();
  FlowState* fs = lookup(key, now, /*create=*/false);
  if (fs == nullptr) {
    const bool may_create = is_syn || !config_.requires_syn;
    if (!may_create) {
      // Mid-flow packet on an unknown flow: ignored (GFC resync behaviour).
      out.processed = false;
      LIBERATE_PROV_NOTE(now, pkey(key), "dpi-skip",
                         obs::fv("reason", "mid-flow-unknown"));
      return finish(nullptr, key, now, out);
    }
    fs = lookup(key, now, /*create=*/true);
  }
  fs->last_seen = now;
  if (is_syn) fs->saw_syn = true;

  FlowState::DirState& ds = fs->dirs[c2s ? 0 : 1];

  // --- Sequence tracking / validation ------------------------------------
  if (tcp.syn()) {
    ds.seq_initialized = true;
    ds.next_seq = tcp.seq + 1;
  } else if (!ds.seq_initialized && !tcp.payload.empty()) {
    ds.seq_initialized = true;
    ds.next_seq = tcp.seq;
  } else if (config_.validate_tcp_seq && ds.seq_initialized &&
             !tcp.payload.empty() &&
             !seq_within(tcp.seq, ds.next_seq, config_.seq_window)) {
    out.processed = false;
    out.skipped_invalid = true;
    LIBERATE_PROV_NOTE(now, pkey(key), "dpi-skip",
                       obs::fv("reason", "seq-out-of-window"),
                       obs::fv("seq", std::uint64_t{tcp.seq}),
                       obs::fv("expected", std::uint64_t{ds.next_seq}));
    return finish(fs, key, now, out);
  }

  // --- Sticky result (match-and-forget) -----------------------------------
  if (config_.match_and_forget && active_result(*fs, now)) {
    return finish(fs, key, now, out);
  }

  if (tcp.payload.empty()) return finish(fs, key, now, out);

  // --- Content inspection --------------------------------------------------
  RuleContext ctx;
  ctx.dst_port = key.dst_port;
  ctx.udp = false;

  // Urgent-pointer handling: a strict implementation removes the out-of-band
  // byte (the one the urgent pointer designates) before the data is matched,
  // exactly as a receiver delivering it out of band would. Sequence-number
  // accounting below always uses the wire length, so the two interpretations
  // diverge only in what the matcher sees — the g1/g2 probe dimension.
  BytesView content_payload = tcp.payload;
  Bytes urgent_stripped;
  if (config_.strip_urgent_bytes && tcp.has(TcpFlags::kUrg) &&
      tcp.urgent_ptr > 0 && tcp.urgent_ptr <= tcp.payload.size()) {
    urgent_stripped.reserve(tcp.payload.size() - 1);
    urgent_stripped.insert(
        urgent_stripped.end(), tcp.payload.begin(),
        tcp.payload.begin() + static_cast<std::ptrdiff_t>(tcp.urgent_ptr - 1));
    urgent_stripped.insert(
        urgent_stripped.end(),
        tcp.payload.begin() + static_cast<std::ptrdiff_t>(tcp.urgent_ptr),
        tcp.payload.end());
    content_payload = BytesView(urgent_stripped);
    LIBERATE_COUNTER_ADD("dpi.urgent_bytes_stripped", 1);
  }

  if (config_.mode == ClassifierConfig::Mode::kPerPacket) {
    ds.payload_packets += 1;
    if (config_.packet_inspection_limit != 0 &&
        ds.payload_packets > config_.packet_inspection_limit) {
      ds.gave_up = true;
    }
    // Advance expected seq for validation purposes.
    if (ds.seq_initialized && seq_within(tcp.seq, ds.next_seq, config_.seq_window)) {
      std::uint32_t end = tcp.seq + static_cast<std::uint32_t>(tcp.payload.size());
      if (static_cast<std::int32_t>(end - ds.next_seq) > 0) ds.next_seq = end;
    }
    if (!ds.gave_up) {
      ctx.packet_index = ds.payload_packets;
      run_match(*fs, content_payload, ctx, key, now, &out);
    }
    return finish(fs, key, now, out);
  }

  // Stream mode.
  ds.payload_packets += 1;
  if (!ds.gave_up) {
    auto append_assembled = [&](BytesView bytes) {
      std::size_t room = config_.stream_buffer_cap > ds.assembled.size()
                             ? config_.stream_buffer_cap - ds.assembled.size()
                             : 0;
      std::size_t take = std::min(room, bytes.size());
      ds.assembled.insert(ds.assembled.end(), bytes.begin(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(take));
    };
    // Drain buffered out-of-order segments that are now in sequence.
    auto drain_out_of_order = [&] {
      if (!config_.stream_handles_out_of_order) return;
      bool advanced = true;
      while (advanced) {
        advanced = false;
        auto it = ds.out_of_order.find(ds.next_seq);
        if (it != ds.out_of_order.end()) {
          append_assembled(BytesView(it->second));
          ds.next_seq += static_cast<std::uint32_t>(it->second.size());
          ds.out_of_order.erase(it);
          advanced = true;
        }
      }
    };
    if (tcp.seq == ds.next_seq || !ds.seq_initialized) {
      if (!ds.seq_initialized) {
        ds.seq_initialized = true;
        ds.next_seq = tcp.seq;
      }
      if (ds.assembled.empty()) ds.stream_base = tcp.seq;
      append_assembled(content_payload);
      ds.next_seq = tcp.seq + static_cast<std::uint32_t>(tcp.payload.size());
      drain_out_of_order();
    } else if (static_cast<std::int32_t>(tcp.seq - ds.next_seq) < 0 &&
               config_.stream_overlap !=
                   ClassifierConfig::StreamOverlap::kIgnore) {
      // Segment rewinds into already-assembled bytes: the Ptacek/Newsham
      // conflicting-overlap ambiguity. kLastWins rewrites the overlapped
      // window in place; both policies append a genuinely new tail.
      const std::uint32_t edge = ds.next_seq - tcp.seq;
      if (config_.stream_overlap ==
          ClassifierConfig::StreamOverlap::kLastWins) {
        std::size_t pos = std::min<std::size_t>(
            static_cast<std::uint32_t>(tcp.seq - ds.stream_base),
            ds.assembled.size());
        std::size_t n =
            std::min<std::size_t>(content_payload.size(),
                                  ds.assembled.size() - pos);
        std::copy_n(content_payload.begin(), n,
                    ds.assembled.begin() + static_cast<std::ptrdiff_t>(pos));
        LIBERATE_COUNTER_ADD("dpi.stream_overlap_rewritten", 1);
      }
      if (content_payload.size() > edge) {
        append_assembled(content_payload.subspan(edge));
        ds.next_seq = tcp.seq + static_cast<std::uint32_t>(tcp.payload.size());
        drain_out_of_order();
      }
    } else if (config_.stream_handles_out_of_order) {
      ds.out_of_order.emplace(
          tcp.seq, Bytes(content_payload.begin(), content_payload.end()));
    }
    // else: out-of-order bytes silently lost to the matcher (T-Mobile).

    // Anchor evaluation on the client->server stream: the first assembled
    // bytes must begin with one of the configured prefixes.
    if (c2s && !config_.stream_anchor_prefixes.empty() &&
        !ds.anchor_evaluated) {
      std::size_t longest = 0;
      for (const auto& p : config_.stream_anchor_prefixes) {
        longest = std::max(longest, p.size());
      }
      if (ds.assembled.size() >= longest) {
        ds.anchor_evaluated = true;
        std::string head =
            to_string(BytesView(ds.assembled).subspan(0, longest));
        ds.anchor_ok = false;
        for (const auto& p : config_.stream_anchor_prefixes) {
          if (head.rfind(p, 0) == 0) {
            ds.anchor_ok = true;
            break;
          }
        }
        if (!ds.anchor_ok) {
          ds.gave_up = true;
          LIBERATE_PROV_NOTE(now, pkey(key), "dpi-gave-up",
                             obs::fv("reason", "anchor-mismatch"));
        }
      }
    }

    if (!ds.gave_up) {
      run_match(*fs, BytesView(ds.assembled), ctx, key, now, &out);
    }

    if (config_.packet_inspection_limit != 0 &&
        ds.payload_packets >= config_.packet_inspection_limit) {
      ds.gave_up = true;
    }
  }
  return finish(fs, key, now, out);
}

Inspection DpiEngine::inspect_udp(const PacketView& pkt, bool c2s,
                                  const FiveTuple& key, TimePoint now) {
  Inspection out;
  out.processed = true;
  LIBERATE_COUNTER_ADD("dpi.packets_inspected", 1);
  FlowState* fs = lookup(key, now, /*create=*/true);
  fs->last_seen = now;
  FlowState::DirState& ds = fs->dirs[c2s ? 0 : 1];

  if (config_.match_and_forget && active_result(*fs, now)) {
    return finish(fs, key, now, out);
  }
  BytesView payload = pkt.udp->payload;
  if (payload.empty()) return finish(fs, key, now, out);

  ds.payload_packets += 1;
  if (config_.packet_inspection_limit != 0 &&
      ds.payload_packets > config_.packet_inspection_limit) {
    ds.gave_up = true;
  }
  if (!ds.gave_up) {
    RuleContext ctx;
    ctx.dst_port = key.dst_port;
    ctx.udp = true;
    ctx.packet_index = ds.payload_packets;
    run_match(*fs, payload, ctx, key, now, &out);
  }
  return finish(fs, key, now, out);
}

void DpiEngine::run_match(FlowState& fs, BytesView content,
                          const RuleContext& ctx, const FiveTuple& key,
                          TimePoint now, Inspection* out) {
  LIBERATE_COST_TICK(kMatchOps, 1);
  // Evaluation normally runs the compiled match program (one shared content
  // scan for all rules); the process-global backend toggle routes it through
  // the reference linear matcher instead so determinism/equivalence suites
  // can compare entire analyses across both implementations.
  const bool use_program = match_backend() == MatchBackend::kCompiled;
  // Flows the provenance scope samples record their decision path. Traced
  // evaluation shares the exact code path with the untraced one (the plain
  // entry points delegate to the traced ones), so recording it can never
  // change the verdict; an unsampled flow builds no steps at all.
  std::vector<RuleStep>* trace = nullptr;
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
  std::vector<RuleStep> steps;
  const obs::prov::FlowKey flow = pkey(key);
  if (obs::prov::ProvenanceRecorder::sampled(flow)) trace = &steps;
#endif
  RuleHit hit =
      use_program ? program_->run(rules_, content, ctx, trace, match_scratch_)
                  : match_rules_reference_traced(rules_, content, ctx, trace);
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
  if (trace != nullptr) {
    std::uint64_t inspected = 0;
    for (const RuleStep& s : steps) {
      if (s.outcome == RuleStep::Outcome::kNoMatch ||
          s.outcome == RuleStep::Outcome::kMatched) {
        inspected += 1;
      }
    }
    auto& rec = obs::prov::ProvenanceRecorder::instance();
    if (hit) {
      std::string offsets;
      for (std::size_t off : steps.back().content.keyword_offsets) {
        if (!offsets.empty()) offsets += ",";
        offsets += std::to_string(off);
      }
      rec.note(now, flow, "rules-evaluated",
               {obs::fv("tried", std::uint64_t{steps.size()}),
                obs::fv("inspected", inspected),
                obs::fv("class", hit.rule->traffic_class),
                obs::fv("rule", hit.rule->name),
                obs::fv("depth", std::uint64_t{steps.size()}),
                obs::fv("offsets", offsets),
                obs::fv("content_len", std::uint64_t{content.size()})});
    } else {
      rec.note(now, flow, "rules-evaluated",
               {obs::fv("tried", std::uint64_t{steps.size()}),
                obs::fv("inspected", inspected),
                obs::fv("outcome", "no-match"),
                obs::fv("content_len", std::uint64_t{content.size()})});
    }
  }
#endif
  if (!hit) {
    LIBERATE_COUNTER_ADD("dpi.match_misses", 1);
    return;
  }

  LIBERATE_COUNTER_ADD("dpi.classifications", 1);
  LIBERATE_OBS_EVENT(now, "dpi", "classified",
                     liberate::obs::fv("class", hit.rule->traffic_class),
                     liberate::obs::fv("rule", hit.rule->name));
  out->newly_classified = true;
  out->traffic_class = hit.rule->traffic_class;
  out->rule = hit.rule;
  log_.push_back(
      ClassificationEvent{now, key, hit.rule->traffic_class, hit.rule->name});

  if (config_.match_and_forget) {
    fs.result = hit.rule->traffic_class;
    fs.matched_rule = hit.rule;
    fs.result_at = now;
    if (config_.result_timeout) {
      fs.result_expires = now + *config_.result_timeout;
    } else {
      fs.result_expires.reset();
    }
  }
}

}  // namespace liberate::dpi
