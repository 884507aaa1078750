// obs.h — the instrumentation macros (the only thing instrumented code
// includes).
//
//   LIBERATE_COUNTER_ADD("dpi.classifications", 1);
//   LIBERATE_GAUGE_SET("util.pool_queue_depth", depth);
//   LIBERATE_HDR_RECORD("core.round_latency_us", micros);
//   LIBERATE_OBS_SPAN("core.round", [&] { return loop.now(); });
//   LIBERATE_OBS_EVENT(now_us, "dpi", "classified",
//                      liberate::obs::fv("class", name));
//
// Level gating happens HERE and only here (see level.h): below the level,
// a macro expands to an empty statement — arguments are not evaluated, no
// registry is touched, no atomics exist in the emitted code. The metric
// handle lookup is a function-local static, so the name -> metric map is
// consulted once per site, not once per call.
#pragma once

#include "obs/level.h"

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS
#include "obs/metrics.h"
#include "obs/prof/context.h"
#include "obs/prof/cost_ledger.h"
#include "obs/timeseries.h"
#endif
#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL
#include "obs/event_log.h"
#include "obs/provenance/recorder.h"
#include "obs/span.h"
#endif

#define LIBERATE_OBS_CONCAT_INNER(a, b) a##b
#define LIBERATE_OBS_CONCAT(a, b) LIBERATE_OBS_CONCAT_INNER(a, b)

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_METRICS

#define LIBERATE_COUNTER_ADD(name, n)                                         \
  do {                                                                        \
    static ::liberate::obs::Counter& liberate_obs_c =                         \
        ::liberate::obs::MetricsRegistry::instance().counter(name);           \
    liberate_obs_c.add(static_cast<std::uint64_t>(n));                        \
  } while (0)

#define LIBERATE_GAUGE_SET(name, v)                                           \
  do {                                                                        \
    static ::liberate::obs::Gauge& liberate_obs_g =                           \
        ::liberate::obs::MetricsRegistry::instance().gauge(name);             \
    liberate_obs_g.set(static_cast<std::int64_t>(v));                         \
  } while (0)

#define LIBERATE_GAUGE_ADD(name, v)                                           \
  do {                                                                        \
    static ::liberate::obs::Gauge& liberate_obs_g =                           \
        ::liberate::obs::MetricsRegistry::instance().gauge(name);             \
    liberate_obs_g.add(static_cast<std::int64_t>(v));                         \
  } while (0)

/// HDR latency histogram: no bounds to pick — every uint64 value has a
/// log-linear bucket (obs/hdr_histogram.h); quantiles come out of the
/// snapshot exporters.
#define LIBERATE_HDR_RECORD(name, v)                                          \
  do {                                                                        \
    static ::liberate::obs::HdrHistogram& liberate_obs_hh =                   \
        ::liberate::obs::MetricsRegistry::instance().hdr(name);               \
    liberate_obs_hh.record(static_cast<std::uint64_t>(v));                    \
  } while (0)

// ---- telemetry hub (obs/timeseries.h) ----
// TUs using these must link liberate_obs_hub (the store is cc-backed).

/// Appends one (sim-clock time, value) point to the (name, shard) series;
/// shard -1 = fleet/process-wide.
#define LIBERATE_TS_SAMPLE(name, shard, t_us, v)                              \
  ::liberate::obs::TimeSeriesStore::instance().sample(                        \
      (name), static_cast<int>(shard), static_cast<std::uint64_t>(t_us),      \
      static_cast<double>(v))

/// Registry sweep at a sim-clock tick: counter deltas + gauge values for
/// every metric matching the given name prefixes (variadic so a brace list
/// with commas stays one argument: LIBERATE_TS_TICK(ts, {"deploy.", "dpi."})).
#define LIBERATE_TS_TICK(t_us, ...)                                           \
  ::liberate::obs::TimeSeriesStore::instance().tick(                          \
      static_cast<std::uint64_t>(t_us), __VA_ARGS__)

// ---- cost ledger (obs/prof/cost_ledger.h) ----

/// Attributes resource ticks in the enclosing block (and in pool tasks
/// whose submission is wrapped in LIBERATE_OBS_PROPAGATE below) to the
/// given phase. `phase` is a bare CostPhase enumerator name (kDetection,
/// kReadapt, ...). Nested scopes override.
#define LIBERATE_COST_SCOPE(phase)                              \
  ::liberate::obs::CostLedger::PhaseScope LIBERATE_OBS_CONCAT(  \
      liberate_obs_cost_scope_, __COUNTER__)(                   \
      ::liberate::obs::CostPhase::phase)

/// Ticks `n` units of a resource kind against the ambient phase. `kind`
/// is a bare CostKind enumerator name (kRounds, kProbes, ...).
#define LIBERATE_COST_TICK(kind, n)                     \
  ::liberate::obs::CostLedger::instance().tick(         \
      ::liberate::obs::CostKind::kind,                  \
      static_cast<std::uint64_t>(n))

// ---- ambient-context propagation (obs/prof/context.h) ----

/// Wraps a task callable at a pool-submission site so the task runs under
/// the ambient span / profile node / cost phase of the *submitting* thread
/// (captured now). Variadic: the callable may contain commas. At level 0
/// this expands to the callable unchanged.
#define LIBERATE_OBS_PROPAGATE(...) \
  ::liberate::obs::propagate_context(__VA_ARGS__)

#else  // level 0: true no-ops, arguments unevaluated

#define LIBERATE_COUNTER_ADD(name, n) \
  do {                                \
  } while (0)
#define LIBERATE_GAUGE_SET(name, v) \
  do {                              \
  } while (0)
#define LIBERATE_GAUGE_ADD(name, v) \
  do {                              \
  } while (0)
#define LIBERATE_HDR_RECORD(name, v) \
  do {                               \
  } while (0)
#define LIBERATE_TS_SAMPLE(name, shard, t_us, v) \
  do {                                           \
  } while (0)
#define LIBERATE_TS_TICK(t_us, ...) \
  do {                              \
  } while (0)
#define LIBERATE_COST_SCOPE(phase) \
  do {                             \
  } while (0)
#define LIBERATE_COST_TICK(kind, n) \
  do {                              \
  } while (0)
#define LIBERATE_OBS_PROPAGATE(...) (__VA_ARGS__)

#endif

#if LIBERATE_OBS_LEVEL >= LIBERATE_OBS_LEVEL_FULL

/// Declares a scoped span alive until the end of the enclosing block.
/// The trailing arguments form the clock: any callable returning sim-clock
/// microseconds (variadic so lambda captures may contain commas).
#define LIBERATE_OBS_SPAN(name, ...)                        \
  ::liberate::obs::ScopedSpan LIBERATE_OBS_CONCAT(          \
      liberate_obs_span_, __COUNTER__)((name), (__VA_ARGS__))

/// Trailing arguments are obs::fv(key, value) fields.
#define LIBERATE_OBS_EVENT(ts_us, layer, kind, ...)                           \
  ::liberate::obs::EventLog::instance().record((ts_us), (layer), (kind),      \
                                               {__VA_ARGS__})

// ---- provenance flight recorder (obs/provenance/recorder.h) ----
//
// Each recording macro first asks the scope whether it samples the flow
// (ProvenanceRecorder::sampled, from header bytes only) and does nothing
// more for a flow it does not: no digest, lock, allocation or field list.

#define LIBERATE_PROV_RECORDER ::liberate::obs::prov::ProvenanceRecorder

/// Binds the calling thread to a provenance scope (a round fingerprint)
/// until the end of the enclosing block. An optional second argument
/// samples the scope: it records 1 flow in that many (default 1, all).
#define LIBERATE_PROV_SCOPE(...)                                      \
  ::liberate::obs::prov::ScopedProvScope LIBERATE_OBS_CONCAT(         \
      liberate_prov_scope_, __COUNTER__)(__VA_ARGS__)

/// Registers a packet's lineage node at creation. `datagram` is the
/// serialized bytes (Bytes/BytesView); `kind` names the origin ("tcp",
/// "udp", "icmp", "crafted").
#define LIBERATE_PROV_PACKET(datagram, kind)                          \
  do {                                                                \
    const auto& liberate_prov_pkt = (datagram);                       \
    if (LIBERATE_PROV_RECORDER::sampled(                              \
            ::liberate::obs::prov::flow_key_of(liberate_prov_pkt))) { \
      LIBERATE_PROV_RECORDER::instance().packet(liberate_prov_pkt,    \
                                                (kind));              \
    }                                                                 \
  } while (0)

/// Records a causal hop: `child` was produced from `parent` by `actor`.
/// The parent's flow decides (a non-first fragment's header has no ports).
#define LIBERATE_PROV_EDGE(ts_us, parent, child, kind, actor)         \
  do {                                                                \
    const auto& liberate_prov_parent = (parent);                      \
    if (LIBERATE_PROV_RECORDER::sampled(                              \
            ::liberate::obs::prov::flow_key_of(                       \
                liberate_prov_parent))) {                             \
      LIBERATE_PROV_RECORDER::instance().edge(                        \
          (ts_us), liberate_prov_parent, (child), (kind), (actor));   \
    }                                                                 \
  } while (0)

/// Appends a decision record to the flow's ledger; trailing arguments are
/// obs::fv(key, value) fields. `flow` is an obs::prov::FlowKey.
#define LIBERATE_PROV_NOTE(ts_us, flow, kind, ...)                    \
  do {                                                                \
    const ::liberate::obs::prov::FlowKey liberate_prov_flow = (flow); \
    if (LIBERATE_PROV_RECORDER::sampled(liberate_prov_flow)) {        \
      LIBERATE_PROV_RECORDER::instance().note(                        \
          (ts_us), liberate_prov_flow, (kind), {__VA_ARGS__});        \
    }                                                                 \
  } while (0)

/// LIBERATE_PROV_NOTE for sites holding the serialized datagram: the flow
/// key is derived from the packet and the record links to its lineage node.
#define LIBERATE_PROV_NOTE_PKT(ts_us, datagram, kind, ...)            \
  do {                                                                \
    const auto& liberate_prov_pkt = (datagram);                       \
    const ::liberate::obs::prov::FlowKey liberate_prov_flow =         \
        ::liberate::obs::prov::flow_key_of(liberate_prov_pkt);        \
    if (LIBERATE_PROV_RECORDER::sampled(liberate_prov_flow)) {        \
      LIBERATE_PROV_RECORDER::instance().note_pkt(                    \
          (ts_us), liberate_prov_flow, liberate_prov_pkt, (kind),     \
          {__VA_ARGS__});                                             \
    }                                                                 \
  } while (0)

#else  // spans/events/provenance compiled out below "full"

#define LIBERATE_OBS_SPAN(name, ...) \
  do {                               \
  } while (0)
#define LIBERATE_OBS_EVENT(ts_us, layer, kind, ...) \
  do {                                              \
  } while (0)
#define LIBERATE_PROV_SCOPE(...) \
  do {                           \
  } while (0)
#define LIBERATE_PROV_PACKET(datagram, kind) \
  do {                                       \
  } while (0)
#define LIBERATE_PROV_EDGE(ts_us, parent, child, kind, actor) \
  do {                                                        \
  } while (0)
#define LIBERATE_PROV_NOTE(ts_us, flow, kind, ...) \
  do {                                             \
  } while (0)
#define LIBERATE_PROV_NOTE_PKT(ts_us, datagram, kind, ...) \
  do {                                                     \
  } while (0)

#endif
