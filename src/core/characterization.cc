#include "core/characterization.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/rng.h"

namespace liberate::core {

using trace::ApplicationTrace;
using trace::Message;
using trace::Sender;

namespace {

/// TTL probes go out in fixed-size waves. The size is a constant — never
/// the worker count — so the probe set (and with it every report field and
/// round count) is identical for any pool size.
constexpr std::size_t kTtlWave = 8;

/// Insert `count` random messages before message `before_index`, sent by
/// the same endpoint as that message (a prepend probe must land in the same
/// direction the classifier counts — rules can key on server content, e.g.
/// AT&T's Content-Type).
ApplicationTrace with_prepended_probe(const ApplicationTrace& trace,
                                      std::size_t before_index,
                                      std::size_t count, std::size_t size,
                                      Rng& rng) {
  ApplicationTrace out = trace;
  Sender sender = before_index < trace.messages.size()
                      ? trace.messages[before_index].sender
                      : Sender::kClient;
  std::vector<Message> junk;
  for (std::size_t i = 0; i < count; ++i) {
    Message m;
    m.sender = sender;
    m.payload = rng.bytes(size);
    junk.push_back(std::move(m));
  }
  out.messages.insert(
      out.messages.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(before_index, out.messages.size())),
      junk.begin(), junk.end());
  return out;
}

/// Index of the first client-sent message (0 when none).
std::size_t first_client_message_index(const ApplicationTrace& trace) {
  for (std::size_t i = 0; i < trace.messages.size(); ++i) {
    if (trace.messages[i].sender == Sender::kClient) return i;
  }
  return 0;
}

RoundRequest plain_round(ApplicationTrace trace) {
  RoundRequest req;
  req.trace = std::move(trace);
  return req;
}

}  // namespace

CharacterizationReport characterize_classifier(
    ProbeExecutor& executor, const ApplicationTrace& trace,
    const CharacterizationOptions& options) {
  CharacterizationReport report;
  Rng rng(0xC11A5);
  ProbeCost cost;
  auto run = [&](const std::vector<RoundRequest>& wave,
                 const ProbeExecutor::Stop& stop = {}) {
    std::vector<RoundResult> results = executor.run_batch(wave, stop);
    cost.add(results);
    return results;
  };

  // --- Port sensitivity first (§6.3, §6.6): it decides how the remaining
  // rounds pick ports. A port-sensitive classifier (Iran) forces every round
  // onto the trace's port; otherwise fresh ports per round sidestep
  // GFC-style endpoint escalation (§6.5).
  {
    ApplicationTrace moved = trace;
    moved.server_port = static_cast<std::uint16_t>(trace.server_port + 1000);
    report.port_sensitive =
        !run({plain_round(std::move(moved))})[0].differentiated;
  }

  // Ports are assigned in request-construction order, which is fixed by the
  // trace and the options — never by scheduling or early stops.
  std::uint16_t next_port = 23000;
  auto pick_port = [&]() -> std::uint16_t {
    if (options.pin_trace_port || report.port_sensitive) return 0;
    if (options.unique_port_per_round) return next_port++;
    return 0;
  };
  auto probe = [&](ApplicationTrace t) {
    RoundRequest req = plain_round(std::move(t));
    req.server_port_override = pick_port();
    return req;
  };

  // --- Matching fields via blinding (§4.2), one wave per depth level.
  std::size_t blinding_depth = 0;
  ClassificationOracle oracle =
      [&](const std::vector<ApplicationTrace>& probes) {
        // Blinding probes get their own cost phase nested inside
        // characterization — they dominate the paper's ~75-round budget.
        LIBERATE_COST_SCOPE(kBlinding);
        blinding_depth += 1;
        LIBERATE_COUNTER_ADD("core.blinding_waves", 1);
        LIBERATE_COUNTER_ADD("core.blinding_probes", probes.size());
        LIBERATE_GAUGE_SET("core.blinding_depth", blinding_depth);
        std::vector<RoundRequest> wave;
        wave.reserve(probes.size());
        for (const ApplicationTrace& p : probes) wave.push_back(probe(p));
        std::vector<bool> verdicts;
        for (const RoundResult& r : run(wave)) {
          verdicts.push_back(r.differentiated);
        }
        return verdicts;
      };
  report.fields = find_matching_fields(trace, oracle, nullptr,
                                       options.blinding_granularity);

  // --- Position / packet-limit probing (§5.1): the 1-byte position probe,
  // then MTU-sized prepends until classification changes.
  std::size_t match_msg = report.fields.empty()
                              ? first_client_message_index(trace)
                              : report.fields[0].message_index;
  {
    std::vector<RoundRequest> wave;
    wave.push_back(probe(with_prepended_probe(trace, match_msg, 1, 1, rng)));
    for (std::size_t k = 1; k <= options.max_prepend_packets; ++k) {
      wave.push_back(
          probe(with_prepended_probe(trace, match_msg, k, 1400, rng)));
    }
    std::vector<RoundResult> results =
        run(wave, [](std::size_t i, const RoundResult& r) {
          return i > 0 && !r.differentiated;
        });

    report.position_sensitive = !results[0].differentiated;
    std::size_t first_changed = 0;  // 1-based prepend count; 0 = none
    for (std::size_t k = 1; k < results.size(); ++k) {
      if (!results[k].differentiated) {
        first_changed = k;
        break;
      }
    }
    report.inspects_all_packets = first_changed == 0;
    if (first_changed != 0) {
      // Confirm with 1-byte packets whether the limit is packet-count based.
      auto confirm = run({probe(
          with_prepended_probe(trace, match_msg, first_changed, 1, rng))});
      if (!confirm[0].differentiated) report.packet_limit = first_changed;
    }
  }

  // --- Middlebox localization via TTL probing (§5.2).
  if (options.probe_ttl) {
    // Probe trace: the matching message alone (blocking / direct signals);
    // for the zero-rating signal, follow it with client bulk so the usage
    // counter can discriminate.
    ApplicationTrace ttl_probe;
    ttl_probe.app_name = trace.app_name + "-ttlprobe";
    ttl_probe.transport = trace.transport;
    ttl_probe.server_port = trace.server_port;
    if (match_msg < trace.messages.size()) {
      ttl_probe.messages.push_back(trace.messages[match_msg]);
    }
    if (executor.signal() == dpi::Environment::Signal::kZeroRating) {
      Message bulk;
      bulk.sender = Sender::kClient;
      bulk.payload = rng.bytes(100 * 1024);
      ttl_probe.messages.push_back(std::move(bulk));
    }

    TechniqueContext ctx;
    ctx.matching_snippets = report.snippets();
    for (std::size_t base = 1;
         base <= options.max_ttl_probe && !report.middlebox_hops;
         base += kTtlWave) {
      std::size_t end = std::min(base + kTtlWave - 1, options.max_ttl_probe);
      std::vector<RoundRequest> wave;
      for (std::size_t ttl = base; ttl <= end; ++ttl) {
        RoundRequest req = probe(ttl_probe);
        req.context = ctx;
        req.match_packet_ttl = static_cast<std::uint8_t>(ttl);
        req.timeout_s = 20;
        wave.push_back(std::move(req));
      }
      std::vector<RoundResult> results =
          run(wave, [](std::size_t, const RoundResult& r) {
            return r.differentiated;
          });
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].differentiated) {
          report.middlebox_hops = static_cast<int>(base + i);
          break;
        }
      }
    }
  }

  report.replay_rounds = cost.rounds;
  report.bytes_replayed = cost.bytes;
  report.virtual_seconds = cost.virtual_seconds;
  return report;
}

}  // namespace liberate::core
