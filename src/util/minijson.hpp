#pragma once

// Minimal strict JSON parser (RFC 8259) for the serve protocol layer.
//
// The repo has carried a validate-only recursive-descent walker in
// tests/support/minijson.hpp since PR 3; the daemon needs to *read*
// request fields, so this is the same grammar promoted into a tiny DOM.
// Deliberately small: no comments, no trailing commas, no \uXXXX
// transcoding beyond the BMP escape itself (the four hex digits are
// decoded as a code point and re-encoded as UTF-8), numbers as double.
// Inputs are hostile by assumption (anything a socket peer sends), so
// every parse failure is a clean error with a byte offset, never an
// exception from std::sto* or undefined behavior on truncated input.

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rsnsec {

/// One parsed JSON value. Objects keep their key order (vector of
/// pairs) so tests can assert on emitted layouts; lookup is linear,
/// which is fine for protocol-sized objects (a handful of keys).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_object() const { return kind == Kind::Object; }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
  /// Mutable form, for moving a member's payload out of the tree.
  JsonValue* find(std::string_view key) {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }

  /// Convenience accessors for protocol fields: value if present and of
  /// the right type, nullopt otherwise (the caller turns that into a
  /// structured SRV004 reply instead of guessing).
  std::optional<std::string> string_field(std::string_view key) const {
    const JsonValue* v = find(key);
    if (v == nullptr || !v->is_string()) return std::nullopt;
    return v->string;
  }
  std::optional<double> number_field(std::string_view key) const {
    const JsonValue* v = find(key);
    if (v == nullptr || !v->is_number()) return std::nullopt;
    return v->number;
  }
  std::optional<bool> bool_field(std::string_view key) const {
    const JsonValue* v = find(key);
    if (v == nullptr || !v->is_bool()) return std::nullopt;
    return v->boolean;
  }
};

/// Result of parse_json: either a value or an error position + message.
struct JsonParseResult {
  std::optional<JsonValue> value;
  std::size_t error_pos = 0;
  std::string error;

  bool ok() const { return value.has_value(); }
};

/// Parses exactly one JSON value (surrounding whitespace allowed; any
/// trailing bytes are an error). Depth-limited so a hostile
/// deeply-nested frame cannot overflow the stack.
JsonParseResult parse_json(std::string_view text,
                           std::size_t max_depth = 64);

}  // namespace rsnsec
