// Minimal JSON document model shared by the serving layer.
//
// The repo already contains several purpose-built JSON *writers* (plan_io,
// obs) and one purpose-built reader (plan_from_json); the serve subsystem
// adds more readers — wire requests and plan-store entries — so the reader
// side is factored once here instead of another hand parser. This is a strict parser for the full JSON grammar (objects,
// arrays, strings with escapes, numbers, booleans, null) that rejects
// trailing garbage; numbers keep their raw spelling so std::int64_t values
// round-trip without passing through a double.
#pragma once

#include <cstdint>
#include <string>
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
  [[nodiscard]] double getd(const std::string& key, double dflt = 0) const;
  [[nodiscard]] std::string gets(const std::string& key,
                                 const std::string& dflt = {}) const;
  [[nodiscard]] bool getb(const std::string& key, bool dflt = false) const;

  /// This value as an exact int64 (throws on non-numbers and on spellings
  /// std::stoll rejects, e.g. fractions).
  [[nodiscard]] std::int64_t as_int64() const;
};

/// Parses a complete JSON document. Throws std::invalid_argument (with the
/// byte offset) on any syntax error, on trailing non-whitespace, and on
/// documents nested deeper than an internal sanity bound.
Value parse(const std::string& text);

/// Removes all whitespace outside string literals — turns any JSON
/// document into a single line for newline-delimited protocols.
std::string compact(const std::string& text);

}  // namespace json
}  // namespace rannc
