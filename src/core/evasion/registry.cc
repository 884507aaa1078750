#include "core/evasion/registry.h"

#include <algorithm>

namespace liberate::core {

std::vector<std::unique_ptr<Technique>> build_full_suite() {
  std::vector<std::unique_ptr<Technique>> suite;
  for (InertVariant v : all_inert_variants()) {
    suite.push_back(std::make_unique<InertInsertion>(v));
  }
  suite.push_back(std::make_unique<IpFragmentSplit>(/*reversed=*/false));
  suite.push_back(std::make_unique<TcpSegmentSplit>(/*reversed=*/false));
  suite.push_back(std::make_unique<IpFragmentSplit>(/*reversed=*/true));
  suite.push_back(std::make_unique<TcpSegmentSplit>(/*reversed=*/true));
  suite.push_back(std::make_unique<UdpReorder>());
  suite.push_back(std::make_unique<PauseAfterMatch>());
  suite.push_back(std::make_unique<PauseBeforeMatch>());
  suite.push_back(std::make_unique<RstAfterMatch>());
  suite.push_back(std::make_unique<RstBeforeMatch>());
  return suite;
}

std::unique_ptr<Technique> make_technique(const std::string& name) {
  for (auto& t : build_full_suite()) {
    if (t->name() == name) return std::move(t);
  }
  return nullptr;
}

std::vector<Technique*> ordered_suite(
    const std::vector<std::unique_ptr<Technique>>& suite,
    const PruningFacts& facts) {
  std::vector<Technique*> out;
  for (const auto& t : suite) {
    // Transport applicability.
    if (facts.udp_flow && !t->applies_to_udp()) continue;
    if (!facts.udp_flow && !t->applies_to_tcp()) continue;
    // "if lib·erate finds that a classifier inspects all packets ... inert
    // packet insertions are unlikely to evade" (§5.2) — same for flushing:
    // with no retained state there is nothing to flush. Only
    // splitting/reordering remains.
    if (facts.inspects_all_packets &&
        (t->requires_match_and_forget() ||
         t->category() == Category::kInertInsertion ||
         t->category() == Category::kClassificationFlushing)) {
      continue;
    }
    out.push_back(t.get());
  }

  if (facts.prioritize_known_effective) {
    // Cheap, broadly effective techniques first: splitting/reordering (work
    // everywhere but the GFC/AT&T), then TTL-limited tricks, then the rest.
    auto rank = [](const Technique* t) {
      switch (t->category()) {
        case Category::kPayloadReordering:
          return 0;
        case Category::kPayloadSplitting:
          return 1;
        case Category::kInertInsertion:
          return t->name().find("low-ttl") != std::string::npos ? 2 : 3;
        case Category::kClassificationFlushing:
          return 4;
      }
      return 5;
    };
    std::stable_sort(out.begin(), out.end(),
                     [&](const Technique* a, const Technique* b) {
                       return rank(a) < rank(b);
                     });
  }
  return out;
}

Bytes decoy_request_payload() {
  return to_bytes(
      "GET /headlines.html HTTP/1.1\r\n"
      "Host: news-decoy.example.net\r\n"
      "User-Agent: Mozilla/5.0\r\n"
      "Accept: text/html\r\n"
      "\r\n");
}

}  // namespace liberate::core
