#include "fingerprint/ambiguity.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "util/json.h"
#include "util/json_parse.h"

namespace liberate::fingerprint {

void AmbiguityDigest::add(DimensionResult result) {
  auto it = std::lower_bound(dims.begin(), dims.end(), result.dimension,
                             [](const DimensionResult& d,
                                const std::string& name) {
                               return d.dimension < name;
                             });
  if (it != dims.end() && it->dimension == result.dimension) {
    *it = std::move(result);
  } else {
    dims.insert(it, std::move(result));
  }
}

const DimensionResult* AmbiguityDigest::find(std::string_view dimension) const {
  for (const DimensionResult& d : dims) {
    if (d.dimension == dimension) return &d;
  }
  return nullptr;
}

Fingerprint AmbiguityDigest::fingerprint() const {
  Digest d;
  d.update_u64(static_cast<std::uint64_t>(version));
  d.update_u64(dims.size());
  for (const DimensionResult& r : dims) {
    d.update_sized(r.dimension);
    d.update_u32(r.bits);
    d.update_u32(r.variant_count);
  }
  return d.finish();
}

std::string AmbiguityDigest::fingerprint_hex() const {
  Fingerprint f = fingerprint();
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx:%016llx",
                static_cast<unsigned long long>(f.lo),
                static_cast<unsigned long long>(f.hi));
  return buf;
}

std::string AmbiguityDigest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("version").value(version);
  w.key("format").value(kFormat);
  w.key("dims").begin_array();
  for (const DimensionResult& r : dims) {
    w.begin_object();
    w.key("dimension").value(r.dimension);
    w.key("bits").value(static_cast<std::uint64_t>(r.bits));
    w.key("variants").value(static_cast<std::uint64_t>(r.variant_count));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::optional<AmbiguityDigest> AmbiguityDigest::from_json(
    std::string_view text) {
  auto doc = parse_json(text);
  if (!doc) return std::nullopt;
  return from_json_value(*doc);
}

std::optional<AmbiguityDigest> AmbiguityDigest::from_json_value(
    const JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  const JsonValue* version = doc.find("version");
  const JsonValue* format = doc.find("format");
  const JsonValue* dims = doc.find("dims");
  if (!version || !format || !format->is_string() || !dims ||
      !dims->is_array()) {
    return std::nullopt;
  }
  if (version->as_integer<int>() != kVersion || format->string != kFormat) {
    return std::nullopt;
  }
  AmbiguityDigest out;
  for (const JsonValue& dv : dims->array) {
    if (!dv.is_object()) return std::nullopt;
    const JsonValue* name = dv.find("dimension");
    const JsonValue* bits = dv.find("bits");
    const JsonValue* variants = dv.find("variants");
    if (!name || !name->is_string() || !bits || !variants) {
      return std::nullopt;
    }
    auto bits_value = bits->as_integer<std::uint32_t>();
    auto variant_count = variants->as_integer<std::uint32_t>();
    if (!bits_value || !variant_count) return std::nullopt;
    DimensionResult r;
    r.dimension = name->string;
    r.bits = *bits_value;
    r.variant_count = *variant_count;
    out.add(std::move(r));
  }
  return out;
}

std::size_t ambiguity_distance(const AmbiguityDigest& a,
                               const AmbiguityDigest& b) {
  std::size_t distance = 0;
  // Both dims vectors are name-sorted; walk them like a merge.
  std::size_t i = 0, j = 0;
  while (i < a.dims.size() || j < b.dims.size()) {
    if (j == b.dims.size() ||
        (i < a.dims.size() && a.dims[i].dimension < b.dims[j].dimension)) {
      distance += 2 * a.dims[i].variant_count;
      ++i;
    } else if (i == a.dims.size() ||
               b.dims[j].dimension < a.dims[i].dimension) {
      distance += 2 * b.dims[j].variant_count;
      ++j;
    } else {
      distance += static_cast<std::size_t>(
          std::popcount(a.dims[i].bits ^ b.dims[j].bits));
      // A variant-count mismatch within a shared dimension means the two
      // digests ran different catalog revisions; count the missing tail.
      if (a.dims[i].variant_count != b.dims[j].variant_count) {
        std::uint32_t lo = std::min(a.dims[i].variant_count,
                                    b.dims[j].variant_count);
        std::uint32_t hi = std::max(a.dims[i].variant_count,
                                    b.dims[j].variant_count);
        distance += 2 * (hi - lo);
      }
      ++i;
      ++j;
    }
  }
  return distance;
}

std::string resolution_label(const DimensionResult& d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), ":%x", d.bits);
  return d.dimension + buf;
}

}  // namespace liberate::fingerprint
