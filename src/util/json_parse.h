// json_parse.h — minimal recursive-descent JSON parser (no external deps).
//
// Counterpart of json.h's JsonWriter, used by the deployment control plane
// to reload persisted classifier-fingerprint caches. Scope is deliberately
// small: the full JSON value grammar, doubles for all numbers (callers that
// need 64-bit-exact integers store them as hex strings), order-preserving
// objects, and a recursion-depth cap so hostile inputs cannot blow the
// stack. Malformed input yields std::nullopt, never UB.
#pragma once

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace liberate {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;

  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order (duplicate keys kept; find() returns the
  /// first, matching common parser behaviour).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// The number as an integer of type T: nullopt unless this is a number
  /// with no fractional part inside T's range. Loaders read integers
  /// through this, since casting an out-of-range double is undefined.
  template <typename T>
  std::optional<T> as_integer() const {
    static_assert(std::is_integral_v<T>);
    // Both bounds are exact doubles: min is 0 or -2^k, and max + 1 is 2^k.
    constexpr double kMin = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double kEnd =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (!is_number() || !(number >= kMin && number < kEnd) ||
        number != std::trunc(number)) {
      return std::nullopt;
    }
    return static_cast<T>(number);
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace json_detail {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos < text.size()) {
      char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }
  bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool eat_word(std::string_view w) {
    if (text.substr(pos, w.size()) == w) {
      pos += w.size();
      return true;
    }
    return false;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos + 4 > text.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text[pos + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    pos += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return false;
        char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp;
            if (!parse_hex4(cp)) return false;
            // Surrogate pairs are outside this parser's scope (the writer
            // never emits them); map them to U+FFFD.
            if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
            append_utf8(out, cp);
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(double& out) {
    std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
            text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return false;
    std::string buf(text.substr(start, pos - start));
    char* end = nullptr;
    out = std::strtod(buf.c_str(), &end);
    return end == buf.c_str() + buf.size();
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (pos >= text.size()) return false;
    char c = text[pos];
    if (c == '{') {
      ++pos;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (eat('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!eat(':')) return false;
        JsonValue member;
        if (!parse_value(member, depth + 1)) return false;
        out.object.emplace_back(std::move(key), std::move(member));
        skip_ws();
        if (eat(',')) continue;
        return eat('}');
      }
    }
    if (c == '[') {
      ++pos;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (eat(']')) return true;
      while (true) {
        JsonValue element;
        if (!parse_value(element, depth + 1)) return false;
        out.array.push_back(std::move(element));
        skip_ws();
        if (eat(',')) continue;
        return eat(']');
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (eat_word("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (eat_word("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (eat_word("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    out.kind = JsonValue::Kind::kNumber;
    return parse_number(out.number);
  }
};

}  // namespace json_detail

/// Parse a complete JSON document; trailing garbage is an error.
inline std::optional<JsonValue> parse_json(std::string_view text) {
  json_detail::Parser p{text};
  JsonValue v;
  if (!p.parse_value(v, 0)) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;
  return v;
}

}  // namespace liberate
