// report_io.h — deterministic JSON rendering of an analysis.
//
// Sharing a characterization between users (§4.2's "well known public
// location") goes through deploy::ClassifierFingerprintCache, whose JSON
// entries carry the rule digest and the ambiguity fingerprint; this header
// only renders finished analyses for reports and diffs.
#pragma once

#include <string>

#include "core/liberate.h"
#include "obs/snapshot.h"

namespace liberate::core {

/// Deterministic JSON rendering of a full analysis (detection +
/// characterization + evaluation + cost accounting). The output depends only
/// on the report contents — never on the observability level or pool size —
/// so a level-0 build produces byte-identical analysis JSON.
std::string analysis_report_json(const SessionReport& report);

/// Same analysis block plus a "telemetry" block rendered from an obs
/// snapshot (counters, gauges, histograms, spans, events). The analysis
/// block is rendered by the overload above, so the two sections can be
/// compared independently.
std::string analysis_report_json(const SessionReport& report,
                                 const obs::Snapshot& telemetry);

}  // namespace liberate::core
