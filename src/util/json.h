// The repo's one JSON reader: a minimal document model behind every parse
// of external input — serve wire requests, plan-store entries,
// plan_from_json (rannc lint --plan) and rannc explain --diff. This is a strict parser for the full
// JSON grammar (objects, arrays, strings with escapes, numbers, booleans,
// null) that rejects trailing garbage and numbers a double cannot hold;
// numbers keep their raw spelling so std::int64_t values round-trip
// without passing through a double.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rannc {
namespace json {

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0;       ///< numeric value (lossy beyond 2^53)
  std::string raw_number;  ///< exact spelling, for int64 round-trips
  std::string str;
  std::vector<Value> items;                            ///< Array
  std::vector<std::pair<std::string, Value>> members;  ///< Object, in order

  [[nodiscard]] bool is_null() const { return type == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type == Type::Number; }
  [[nodiscard]] bool is_string() const { return type == Type::String; }
  [[nodiscard]] bool is_array() const { return type == Type::Array; }
  [[nodiscard]] bool is_object() const { return type == Type::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Typed member accessors with defaults. `geti` parses the raw spelling
  /// (exact for any int64); all of them return the default when the key is
  /// absent, and throw std::invalid_argument when it is present with the
  /// wrong type — a present-but-mistyped field is a caller bug worth
  /// diagnosing, not silently defaulting.
  [[nodiscard]] std::int64_t geti(const std::string& key,
                                  std::int64_t dflt = 0) const;
  /// geti narrowed to int; throws std::invalid_argument when out of range.
  [[nodiscard]] int geti32(const std::string& key, int dflt = 0) const;
  [[nodiscard]] double getd(const std::string& key, double dflt = 0) const;
  [[nodiscard]] std::string gets(const std::string& key,
                                 const std::string& dflt = {}) const;
  [[nodiscard]] bool getb(const std::string& key, bool dflt = false) const;

  /// This value as an exact int64. Throws std::invalid_argument on
  /// non-numbers, on any spelling that is not a plain integer (fractions,
  /// exponents: 1.5, 1e3) and on values outside the int64 range.
  [[nodiscard]] std::int64_t as_int64() const;
  /// as_int64 narrowed to int; throws std::invalid_argument when out of range.
  [[nodiscard]] int as_int() const;

  /// Strict-schema check: throws std::invalid_argument unless this is an
  /// object whose every key is in `known`. `what` names the object in the
  /// message.
  void check_keys(std::initializer_list<std::string_view> known,
                  const std::string& what) const;
};

/// Parses a complete JSON document. Throws std::invalid_argument (with the
/// byte offset) on any syntax error, on trailing non-whitespace, on numbers
/// that overflow or underflow a double (1e999, 1e-320), and on documents
/// nested deeper than an internal sanity bound.
Value parse(const std::string& text);

/// Reads the whole file at `path` (a document for parse() or for a typed
/// reader such as plan_from_json). Throws std::invalid_argument naming the
/// path when it cannot be read.
std::string read_file(const std::string& path);

/// Removes all whitespace outside string literals — turns any JSON
/// document into a single line for newline-delimited protocols.
std::string compact(const std::string& text);

}  // namespace json
}  // namespace rannc
