// snapshot.h — point-in-time capture of every obs sink, plus exporters.
//
// capture() merges the per-shard metric cells and copies the span/event
// rings under their locks; the result is a plain value safe to serialize or
// diff. Two export formats:
//
//   * to_prometheus_text() — the Prometheus text exposition format
//     (counters, gauges + _high_water, HDR histograms as quantile
//     summaries), ready for a scrape endpoint or a textfile collector.
//   * write_json()/to_json() — the JSON telemetry block carried by analysis
//     reports (core/report_io) and the BENCH_*.json files.
#pragma once

#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/prof/cost_ledger.h"
#include "obs/prof/export.h"
#include "obs/prof/profiler.h"
#include "obs/provenance/recorder.h"
#include "obs/span.h"
#include "util/json.h"

namespace liberate::obs {

struct Snapshot {
  MetricsSnapshot metrics;
  std::vector<SpanRecord> spans;
  std::uint64_t spans_dropped = 0;
  EventLogSnapshot events;
  prov::ProvSnapshot provenance;
  prof::ProfileSnapshot profile;
  CostLedgerSnapshot cost;
};

inline Snapshot capture() {
  Snapshot snap;
  snap.metrics = MetricsRegistry::instance().snapshot();
  snap.spans = SpanLog::instance().snapshot();
  snap.spans_dropped = SpanLog::instance().dropped();
  snap.events = EventLog::instance().snapshot();
  snap.provenance = prov::ProvenanceRecorder::instance().snapshot();
  snap.profile = prof::Profiler::instance().snapshot();
  snap.cost = CostLedger::instance().snapshot();
  return snap;
}

/// Zero every sink (tests and per-run isolation in long-lived processes).
inline void reset_all() {
  MetricsRegistry::instance().reset();
  SpanLog::instance().reset();
  EventLog::instance().reset();
  prov::ProvenanceRecorder::instance().reset();
  prof::Profiler::instance().reset();
  CostLedger::instance().reset();
}

/// Prometheus-style metric names: dots become underscores.
inline std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

inline std::string to_prometheus_text(const MetricsSnapshot& m) {
  std::string out;
  char buf[64];
  for (const auto& [name, total] : m.counters) {
    std::string p = prometheus_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(total) + "\n";
  }
  for (const auto& [name, g] : m.gauges) {
    std::string p = prometheus_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(g.value) + "\n";
    out += p + "_high_water " + std::to_string(g.high_water) + "\n";
  }
  // HDR histograms export as Prometheus summaries: exact mergeable counts
  // collapse to the standard quantile series (values are the deterministic
  // bucket midpoints, so scrapes of identical runs are identical).
  for (const auto& [name, h] : m.hdr_histograms) {
    std::string p = prometheus_name(name);
    out += "# TYPE " + p + " summary\n";
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      std::snprintf(buf, sizeof(buf), "%g", q);
      out += p + "{quantile=\"" + buf + "\"} " +
             std::to_string(h.value_at_quantile(q)) + "\n";
    }
    out += p + "_sum " + std::to_string(h.sum) + "\n";
    out += p + "_count " + std::to_string(h.count) + "\n";
    out += p + "_max " + std::to_string(h.max) + "\n";
  }
  return out;
}

/// The newest spans and events a JSON telemetry block dumps, so report
/// files stay small; totals are never capped.
inline constexpr std::size_t kJsonSpans = 256;
inline constexpr std::size_t kJsonEvents = 256;

/// Writes the snapshot as one JSON object (caller brackets it with key()
/// or uses to_json() for a standalone document).
inline void write_json(JsonWriter& w, const Snapshot& snap) {
  w.begin_object();

  w.key("counters").begin_object();
  for (const auto& [name, total] : snap.metrics.counters) {
    w.key(name).value(total);
  }
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, g] : snap.metrics.gauges) {
    w.key(name).begin_object();
    w.key("value").value(g.value);
    w.key("high_water").value(g.high_water);
    w.end_object();
  }
  w.end_object();

  // HDR histograms: quantile summary plus the sparse nonzero buckets
  // ([bucket index, count] pairs) — full fidelity for offline merging
  // without dumping ~1000 mostly-zero cells per metric.
  w.key("hdr_histograms").begin_object();
  for (const auto& [name, h] : snap.metrics.hdr_histograms) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("max").value(h.max);
    w.key("p50").value(h.value_at_quantile(0.5));
    w.key("p90").value(h.value_at_quantile(0.9));
    w.key("p99").value(h.value_at_quantile(0.99));
    w.key("p999").value(h.value_at_quantile(0.999));
    w.key("buckets").begin_array();
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (h.counts[b] == 0) continue;
      w.begin_array();
      w.value(static_cast<std::uint64_t>(b));
      w.value(h.counts[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("spans").begin_array();
  {
    std::size_t start =
        snap.spans.size() > kJsonSpans ? snap.spans.size() - kJsonSpans : 0;
    for (std::size_t i = start; i < snap.spans.size(); ++i) {
      const SpanRecord& s = snap.spans[i];
      w.begin_object();
      w.key("id").value(s.id);
      w.key("parent").value(s.parent_id);
      w.key("name").value(s.name);
      w.key("start_us").value(s.start_us);
      w.key("end_us").value(s.end_us);
      w.key("worker").value(s.worker);
      w.end_object();
    }
  }
  w.end_array();
  w.key("spans_dropped").value(snap.spans_dropped);

  w.key("events").begin_object();
  w.key("totals").begin_object();
  for (const auto& [kind, n] : snap.events.totals) w.key(kind).value(n);
  w.end_object();
  w.key("recent").begin_array();
  {
    std::size_t start = snap.events.recent.size() > kJsonEvents
                            ? snap.events.recent.size() - kJsonEvents
                            : 0;
    for (std::size_t i = start; i < snap.events.recent.size(); ++i) {
      const Event& e = snap.events.recent[i];
      w.begin_object();
      w.key("ts_us").value(e.ts_us);
      w.key("layer").value(e.layer);
      w.key("kind").value(e.kind);
      w.key("worker").value(e.worker);
      w.key("fields").begin_object();
      for (const EventField& f : e.fields) w.key(f.key).value(f.value);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.key("dropped").value(snap.events.dropped);
  w.end_object();

  // Provenance stays a summary here — the full graph is exported on demand
  // by explain_verdict / the Chrome trace / pcapng comments, not dumped
  // into every telemetry block.
  w.key("provenance").begin_object();
  w.key("nodes").value(static_cast<std::uint64_t>(snap.provenance.nodes.size()));
  w.key("edges").value(static_cast<std::uint64_t>(snap.provenance.edges.size()));
  w.key("flows").value(
      static_cast<std::uint64_t>(snap.provenance.ledgers.size()));
  w.key("records").value(snap.provenance.total_records);
  w.key("nodes_evicted").value(snap.provenance.nodes_evicted);
  w.key("ledgers_evicted").value(snap.provenance.ledgers_evicted);
  w.end_object();

  w.key("profile");
  prof::write_profile_json(w, snap.profile);

  w.key("cost_ledger");
  prof::write_cost_ledger_json(w, snap.cost);

  w.end_object();
}

inline std::string to_json(const Snapshot& snap) {
  JsonWriter w;
  write_json(w, snap);
  return w.take();
}

}  // namespace liberate::obs
