#include "deploy/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/json.h"
#include "util/json_parse.h"

namespace liberate::deploy {

namespace {

std::string to_hex(BytesView data) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::optional<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]), lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string fingerprint_hex(const Fingerprint& f) {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx:%016llx",
                static_cast<unsigned long long>(f.lo),
                static_cast<unsigned long long>(f.hi));
  return buf;
}

std::optional<Fingerprint> fingerprint_from_hex(std::string_view s) {
  if (s.size() != 33 || s[16] != ':') return std::nullopt;
  auto parse_u64 = [](std::string_view h) -> std::optional<std::uint64_t> {
    std::uint64_t v = 0;
    for (char c : h) {
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        return std::nullopt;
      }
    }
    return v;
  };
  auto lo = parse_u64(s.substr(0, 16));
  auto hi = parse_u64(s.substr(17, 16));
  if (!lo || !hi) return std::nullopt;
  return Fingerprint{*lo, *hi};
}

/// Strict accessors: nullopt/default on shape mismatch so a corrupted cache
/// file degrades to a miss, never to garbage characterizations.
std::optional<std::string> get_string(const JsonValue& v,
                                      std::string_view key) {
  const JsonValue* m = v.find(key);
  if (!m || !m->is_string()) return std::nullopt;
  return m->string;
}

std::optional<double> get_number(const JsonValue& v, std::string_view key) {
  const JsonValue* m = v.find(key);
  if (!m || !m->is_number()) return std::nullopt;
  return m->number;
}

// Integer member `key`: `fallback` when absent or not a number, otherwise
// the number if it is an integer in T's range, and nullopt if it is not.
template <typename T>
std::optional<T> get_integer(const JsonValue& v, std::string_view key,
                             std::optional<T> fallback = std::nullopt) {
  const JsonValue* m = v.find(key);
  if (!m || !m->is_number()) return fallback;
  return m->as_integer<T>();
}

bool get_bool(const JsonValue& v, std::string_view key) {
  const JsonValue* m = v.find(key);
  return m && m->is_bool() && m->boolean;
}

}  // namespace

core::CharacterizationReport CachedCharacterization::characterization() const {
  core::CharacterizationReport report;
  report.fields = fields;
  report.position_sensitive = position_sensitive;
  report.inspects_all_packets = inspects_all_packets;
  report.port_sensitive = port_sensitive;
  report.packet_limit = packet_limit;
  report.middlebox_hops = middlebox_hops;
  return report;
}

core::TechniqueContext CachedCharacterization::context() const {
  return core::technique_context(characterization());
}

Fingerprint characterization_digest(
    const core::CharacterizationReport& report) {
  Digest d;
  d.update_u64(report.fields.size());
  for (const auto& f : report.fields) {
    d.update_u64(f.message_index);
    d.update_u64(f.offset);
    d.update_u64(f.length);
    d.update_sized(BytesView(f.content));
  }
  d.update_u8(report.position_sensitive ? 1 : 0);
  d.update_u8(report.inspects_all_packets ? 1 : 0);
  d.update_u8(report.port_sensitive ? 1 : 0);
  d.update_u8(report.packet_limit.has_value() ? 1 : 0);
  d.update_u64(report.packet_limit.value_or(0));
  d.update_u8(report.middlebox_hops.has_value() ? 1 : 0);
  d.update_u64(static_cast<std::uint64_t>(report.middlebox_hops.value_or(0)));
  return d.finish();
}

void rank_first(std::vector<RankedTechnique>& ranking,
                const std::string& name) {
  auto it = std::find_if(
      ranking.begin(), ranking.end(),
      [&](const RankedTechnique& r) { return r.name == name; });
  if (it != ranking.end()) std::rotate(ranking.begin(), it, it + 1);
}

CachedCharacterization make_cached_characterization(
    const std::string& environment, const std::string& app,
    const core::SessionReport& report) {
  CachedCharacterization entry;
  entry.environment = environment;
  entry.app = app;
  entry.digest = characterization_digest(report.characterization);
  entry.fields = report.characterization.fields;
  entry.position_sensitive = report.characterization.position_sensitive;
  entry.inspects_all_packets = report.characterization.inspects_all_packets;
  entry.port_sensitive = report.characterization.port_sensitive;
  entry.packet_limit = report.characterization.packet_limit;
  entry.middlebox_hops = report.characterization.middlebox_hops;

  for (const auto& o : report.evaluation.outcomes) {
    if (!o.evaded) continue;
    entry.ranking.push_back(RankedTechnique{o.technique,
                                            o.overhead.extra_packets,
                                            o.overhead.extra_bytes,
                                            o.overhead.extra_seconds});
  }
  // Stable sort keeps suite order among equals, so the ranking (and every
  // downstream fallback walk) is deterministic.
  std::stable_sort(entry.ranking.begin(), entry.ranking.end(),
                   [](const RankedTechnique& a, const RankedTechnique& b) {
                     core::Overhead oa{a.extra_packets, a.extra_bytes,
                                       a.extra_seconds, ""};
                     core::Overhead ob{b.extra_packets, b.extra_bytes,
                                       b.extra_seconds, ""};
                     return core::cheaper(oa, ob);
                   });
  // The selected technique won the original evaluation; pin it to the front
  // even if a cost tie would sort another first.
  if (report.selected_technique) {
    rank_first(entry.ranking, *report.selected_technique);
  }
  return entry;
}

const CachedCharacterization* ClassifierFingerprintCache::lookup(
    const std::string& environment, const std::string& app) const {
  auto it = entries_.find({environment, app});
  return it == entries_.end() ? nullptr : &it->second;
}

void ClassifierFingerprintCache::store(CachedCharacterization entry) {
  entries_[{entry.environment, entry.app}] = std::move(entry);
}

std::pair<const CachedCharacterization*, std::size_t>
ClassifierFingerprintCache::nearest_by_ambiguity(
    const fingerprint::AmbiguityDigest& probed, const std::string& app,
    std::size_t max_distance) const {
  const CachedCharacterization* best = nullptr;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (const auto& [key, e] : entries_) {
    if (e.app != app || !e.ambiguity) continue;
    const std::size_t d = fingerprint::ambiguity_distance(probed, *e.ambiguity);
    // Strict < keeps the first entry in deterministic map order on ties.
    if (d <= max_distance && d < best_distance) {
      best = &e;
      best_distance = d;
    }
  }
  return {best, best_distance};
}

std::string ClassifierFingerprintCache::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("version").value(kSchemaVersion);
  w.key("digest_format").value(fingerprint::AmbiguityDigest::kFormat);
  w.key("entries").begin_array();
  for (const auto& [key, e] : entries_) {
    w.begin_object();
    w.key("environment").value(e.environment);
    w.key("app").value(e.app);
    w.key("digest").value(fingerprint_hex(e.digest));
    w.key("position_sensitive").value(e.position_sensitive);
    w.key("inspects_all_packets").value(e.inspects_all_packets);
    w.key("port_sensitive").value(e.port_sensitive);
    if (e.packet_limit) {
      w.key("packet_limit").value(static_cast<std::uint64_t>(*e.packet_limit));
    } else {
      w.key("packet_limit").null();
    }
    if (e.middlebox_hops) {
      w.key("middlebox_hops").value(*e.middlebox_hops);
    } else {
      w.key("middlebox_hops").null();
    }
    w.key("fields").begin_array();
    for (const auto& f : e.fields) {
      w.begin_object();
      w.key("message").value(static_cast<std::uint64_t>(f.message_index));
      w.key("offset").value(static_cast<std::uint64_t>(f.offset));
      w.key("length").value(static_cast<std::uint64_t>(f.length));
      w.key("content_hex").value(to_hex(BytesView(f.content)));
      w.end_object();
    }
    w.end_array();
    w.key("ranking").begin_array();
    for (const auto& r : e.ranking) {
      w.begin_object();
      w.key("technique").value(r.name);
      w.key("extra_packets").value(static_cast<std::uint64_t>(r.extra_packets));
      w.key("extra_bytes").value(static_cast<std::uint64_t>(r.extra_bytes));
      w.key("extra_seconds").value(r.extra_seconds);
      w.end_object();
    }
    w.end_array();
    if (e.ambiguity) {
      w.key("ambiguity").raw_value(e.ambiguity->to_json());
    } else {
      w.key("ambiguity").null();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::optional<ClassifierFingerprintCache> ClassifierFingerprintCache::from_json(
    std::string_view text) {
  auto doc = parse_json(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  // Schema gate: v1 files predate ambiguity digests and must invalidate
  // cleanly (a cold start), as must files probed with a different digest
  // format revision.
  if (get_integer<int>(*doc, "version") != kSchemaVersion) {
    return std::nullopt;
  }
  auto digest_format = get_string(*doc, "digest_format");
  if (!digest_format ||
      *digest_format != fingerprint::AmbiguityDigest::kFormat) {
    return std::nullopt;
  }
  const JsonValue* entries = doc->find("entries");
  if (!entries || !entries->is_array()) return std::nullopt;

  ClassifierFingerprintCache cache;
  for (const JsonValue& e : entries->array) {
    if (!e.is_object()) return std::nullopt;
    CachedCharacterization entry;
    auto environment = get_string(e, "environment");
    auto app = get_string(e, "app");
    auto digest_hex = get_string(e, "digest");
    if (!environment || !app || !digest_hex) return std::nullopt;
    auto digest = fingerprint_from_hex(*digest_hex);
    if (!digest) return std::nullopt;
    entry.environment = *environment;
    entry.app = *app;
    entry.digest = *digest;
    entry.position_sensitive = get_bool(e, "position_sensitive");
    entry.inspects_all_packets = get_bool(e, "inspects_all_packets");
    entry.port_sensitive = get_bool(e, "port_sensitive");
    // Unset optionals are written as null; a number must be in range.
    if (const JsonValue* pl = e.find("packet_limit"); pl && pl->is_number()) {
      entry.packet_limit = pl->as_integer<std::size_t>();
      if (!entry.packet_limit) return std::nullopt;
    }
    if (const JsonValue* hops = e.find("middlebox_hops");
        hops && hops->is_number()) {
      entry.middlebox_hops = hops->as_integer<int>();
      if (!entry.middlebox_hops) return std::nullopt;
    }
    const JsonValue* fields = e.find("fields");
    if (!fields || !fields->is_array()) return std::nullopt;
    for (const JsonValue& fv : fields->array) {
      core::MatchingField field;
      auto msg = get_integer<std::size_t>(fv, "message");
      auto off = get_integer<std::size_t>(fv, "offset");
      auto len = get_integer<std::size_t>(fv, "length");
      auto hex = get_string(fv, "content_hex");
      if (!msg || !off || !len || !hex) return std::nullopt;
      auto content = from_hex(*hex);
      if (!content) return std::nullopt;
      field.message_index = *msg;
      field.offset = *off;
      field.length = *len;
      field.content = std::move(*content);
      entry.fields.push_back(std::move(field));
    }
    const JsonValue* ranking = e.find("ranking");
    if (!ranking || !ranking->is_array()) return std::nullopt;
    for (const JsonValue& rv : ranking->array) {
      RankedTechnique r;
      auto name = get_string(rv, "technique");
      auto extra_packets = get_integer<std::size_t>(rv, "extra_packets", 0);
      auto extra_bytes = get_integer<std::size_t>(rv, "extra_bytes", 0);
      if (!name || !extra_packets || !extra_bytes) return std::nullopt;
      r.name = *name;
      r.extra_packets = *extra_packets;
      r.extra_bytes = *extra_bytes;
      r.extra_seconds = get_number(rv, "extra_seconds").value_or(0);
      // JsonWriter writes magnitudes past 1e308 (and inf) as null, which
      // would reload as 0: a loaded cache must re-serialize to itself.
      if (!(std::fabs(r.extra_seconds) <= 1e308)) return std::nullopt;
      entry.ranking.push_back(std::move(r));
    }
    if (const JsonValue* amb = e.find("ambiguity");
        amb != nullptr && !amb->is_null()) {
      auto digest = fingerprint::AmbiguityDigest::from_json_value(*amb);
      if (!digest) return std::nullopt;
      entry.ambiguity = std::move(*digest);
    }
    if (characterization_digest(entry.characterization()) != entry.digest) {
      return std::nullopt;
    }
    cache.store(std::move(entry));
  }
  return cache;
}

bool ClassifierFingerprintCache::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<ClassifierFingerprintCache> ClassifierFingerprintCache::load(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return from_json(text);
}

}  // namespace liberate::deploy
