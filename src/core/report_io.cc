#include "core/report_io.h"

#include "core/evasion/technique.h"
#include "util/json.h"

namespace liberate::core {

namespace {

std::string hex_of(const Bytes& data) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

void write_replay_outcome(JsonWriter& w, const ReplayOutcome& o) {
  w.begin_object();
  w.key("completed").value(o.completed);
  w.key("payload_intact").value(o.payload_intact);
  w.key("blocked").value(o.blocked);
  w.key("got_403").value(o.got_403);
  w.key("rsts_at_client").value(static_cast<std::uint64_t>(o.rsts_at_client));
  w.key("duration_s").value(o.duration_s);
  w.key("goodput_mbps").value(o.goodput_mbps);
  w.key("usage_delta").value(o.usage_delta);
  w.end_object();
}

void write_detection(JsonWriter& w, const DetectionResult& d) {
  w.begin_object();
  w.key("differentiation").value(d.differentiation);
  w.key("content_based").value(d.content_based);
  w.key("used_randomization_fallback").value(d.used_randomization_fallback);
  w.key("needed_unseen_server").value(d.needed_unseen_server);
  w.key("original");
  write_replay_outcome(w, d.original);
  w.key("inverted");
  write_replay_outcome(w, d.inverted);
  w.key("rounds").value(d.rounds);
  w.key("bytes_used").value(d.bytes_used);
  w.key("virtual_seconds").value(d.virtual_seconds);
  w.end_object();
}

void write_characterization(JsonWriter& w, const CharacterizationReport& c) {
  w.begin_object();
  w.key("fields").begin_array();
  for (const MatchingField& f : c.fields) {
    w.begin_object();
    w.key("message_index").value(static_cast<std::uint64_t>(f.message_index));
    w.key("offset").value(static_cast<std::uint64_t>(f.offset));
    w.key("length").value(static_cast<std::uint64_t>(f.length));
    w.key("content_hex").value(hex_of(f.content));
    w.end_object();
  }
  w.end_array();
  w.key("position_sensitive").value(c.position_sensitive);
  if (c.packet_limit) {
    w.key("packet_limit").value(static_cast<std::uint64_t>(*c.packet_limit));
  } else {
    w.key("packet_limit").null();
  }
  w.key("inspects_all_packets").value(c.inspects_all_packets);
  w.key("port_sensitive").value(c.port_sensitive);
  if (c.middlebox_hops) {
    w.key("middlebox_hops").value(*c.middlebox_hops);
  } else {
    w.key("middlebox_hops").null();
  }
  w.key("replay_rounds").value(c.replay_rounds);
  w.key("bytes_replayed").value(c.bytes_replayed);
  w.key("virtual_seconds").value(c.virtual_seconds);
  w.end_object();
}

void write_evaluation(JsonWriter& w, const EvaluationResult& e) {
  w.begin_object();
  w.key("outcomes").begin_array();
  for (const TechniqueOutcome& o : e.outcomes) {
    w.begin_object();
    w.key("technique").value(o.technique);
    w.key("category").value(category_name(o.category));
    w.key("pruned").value(o.pruned);
    w.key("changed_classification").value(o.changed_classification);
    w.key("evaded").value(o.evaded);
    w.key("signal_absent").value(o.signal_absent);
    w.key("payload_intact").value(o.payload_intact);
    w.key("completed").value(o.completed);
    w.key("crafted_reached_server").value(o.crafted_reached_server);
    w.key("crafted_reassembled").value(o.crafted_reassembled);
    w.key("triggered_blocking").value(o.triggered_blocking);
    w.key("overhead").begin_object();
    w.key("extra_packets")
        .value(static_cast<std::uint64_t>(o.overhead.extra_packets));
    w.key("extra_bytes")
        .value(static_cast<std::uint64_t>(o.overhead.extra_bytes));
    w.key("extra_seconds").value(o.overhead.extra_seconds);
    w.key("formula").value(o.overhead.formula);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  if (e.selected) {
    w.key("selected").value(*e.selected);
  } else {
    w.key("selected").null();
  }
  w.key("replay_rounds").value(e.replay_rounds);
  w.key("bytes_replayed").value(e.bytes_replayed);
  w.key("virtual_seconds").value(e.virtual_seconds);
  w.end_object();
}

void write_analysis(JsonWriter& w, const SessionReport& report) {
  w.begin_object();
  w.key("detection");
  write_detection(w, report.detection);
  w.key("ran_characterization").value(report.ran_characterization);
  w.key("characterization");
  write_characterization(w, report.characterization);
  w.key("evaluation");
  write_evaluation(w, report.evaluation);
  if (report.selected_technique) {
    w.key("selected_technique").value(*report.selected_technique);
  } else {
    w.key("selected_technique").null();
  }
  w.key("total_rounds").value(report.total_rounds);
  w.key("total_bytes").value(report.total_bytes);
  w.key("total_virtual_minutes").value(report.total_virtual_minutes);
  w.end_object();
}

}  // namespace

std::string analysis_report_json(const SessionReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("analysis");
  write_analysis(w, report);
  w.end_object();
  return std::move(w).take();
}

std::string analysis_report_json(const SessionReport& report,
                                 const obs::Snapshot& telemetry) {
  JsonWriter w;
  w.begin_object();
  w.key("analysis");
  write_analysis(w, report);
  w.key("telemetry");
  obs::write_json(w, telemetry);
  w.end_object();
  return std::move(w).take();
}

}  // namespace liberate::core
