// The repo's one JSON reader and one JSON writer.
//
// Reading: a minimal document model behind every parse of external input —
// serve wire requests, plan-store entries, plan_from_json (rannc lint
// --plan) and rannc explain --diff. This is a strict parser for the full
// JSON grammar (objects, arrays, strings with escapes, numbers, booleans,
// null) that rejects trailing garbage and numbers a double cannot hold;
// numbers keep their raw spelling so std::int64_t values round-trip
// without passing through a double.
//
// Writing: `Writer` streams every document the program emits — plans,
// plan-store entries, serve replies, traces and their args, metrics,
// explain reports and the BENCH_*.json files. It owns all of the syntax:
// string escaping, number spelling, separators and indentation.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
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
/// that overflow a double or underflow it to zero (1e999, 1e-400; a
/// subnormal such as 1e-320 reads), and on documents nested deeper than an
/// internal sanity bound.
Value parse(const std::string& text);

/// Reads the whole file at `path` (a document for parse() or for a typed
/// reader such as plan_from_json). Throws std::invalid_argument naming the
/// path when it cannot be read.
std::string read_file(const std::string& path);

/// `s` escaped and quoted: `"` `\` newline tab and CR as \" \\ \n \t \r,
/// every other byte below 0x20 as \u00XX, all else verbatim.
std::string quote(std::string_view s);
/// `v` with max_digits10 significant digits in the shortest %g form, which
/// parses back to the same double; a non-finite value is written as 0.
std::string number(double v);

/// How a Writer lays a document out. The only layout parameter there is.
enum class Layout {
  Pretty,   ///< two-space indent, one member or item per line, final '\n'
  Compact,  ///< no whitespace outside strings: NDJSON lines, trace args
};

/// Streaming writer. Containers open and close explicitly; inside an
/// object every value is preceded by key(). Integers are written exactly
/// as int64, doubles through number(), strings through quote().
///
///   Writer w;
///   w.begin_object().field("version", 1).key("tasks").begin_array();
///   for (int t : tasks) w.value(t);
///   w.end_array().end_object();
class Writer {
 public:
  explicit Writer(Layout layout = Layout::Pretty) : layout_(layout) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// The next value (or container) is this object member's value.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s) { return raw(quote(s)); }
  Writer& value(const char* s) { return raw(quote(s)); }
  Writer& value(double v) { return raw(number(v)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Writer& value(T v) {
    return raw(std::to_string(static_cast<std::int64_t>(v)));
  }
  Writer& null() { return raw("null"); }
  /// Embeds `doc`, a complete document written by a Compact writer, as
  /// one value (a plan in a serve reply, a trace event's args).
  Writer& raw(std::string_view doc);

  /// key(k), then value(v).
  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// The document written so far.
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  /// Separator and indentation before a member or item.
  void next_item();
  /// Pretty layout: line break and indentation for the current depth.
  void newline();
  Writer& open(char bracket);
  Writer& close(char bracket);

  Layout layout_;
  std::string out_;
  std::vector<bool> nonempty_;  ///< per open container: has an item
  bool after_key_ = false;
};

}  // namespace json
}  // namespace rannc
