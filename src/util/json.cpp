#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace rannc {
namespace json {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("JSON: " + what + " at offset " +
                              std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail(pos_, "trailing garbage");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail(pos_, "unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (s_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value value(int depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    Value v;
    switch (peek()) {
      case '{': {
        ++pos_;
        v.type = Value::Type::Object;
        if (consume('}')) return v;
        do {
          skip_ws();
          std::string key = string_body();
          expect(':');
          v.members.emplace_back(std::move(key), value(depth + 1));
        } while (consume(','));
        expect('}');
        return v;
      }
      case '[': {
        ++pos_;
        v.type = Value::Type::Array;
        if (consume(']')) return v;
        do {
          v.items.push_back(value(depth + 1));
        } while (consume(','));
        expect(']');
        return v;
      }
      case '"':
        v.type = Value::Type::String;
        v.str = string_body();
        return v;
      case 't':
        if (!literal("true")) fail(pos_, "bad literal");
        v.type = Value::Type::Bool;
        v.boolean = true;
        return v;
      case 'f':
        if (!literal("false")) fail(pos_, "bad literal");
        v.type = Value::Type::Bool;
        v.boolean = false;
        return v;
      case 'n':
        if (!literal("null")) fail(pos_, "bad literal");
        v.type = Value::Type::Null;
        return v;
      default:
        return number_value();
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail(pos_, "unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail(pos_ - 1, "control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail(pos_, "unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size()) fail(pos_, "truncated \\u escape");
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "bad \\u escape");
          }
          // BMP code points only (surrogate pairs are not produced by any
          // writer in this repo); encode as UTF-8.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail(pos_ - 1, "bad escape");
      }
    }
  }

  Value number_value() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    const auto digits = [this] {
      std::size_t n = 0;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail(start, "expected a value");
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail(pos_, "digits required after '.'");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail(pos_, "digits required in exponent");
    }
    Value v;
    v.type = Value::Type::Number;
    v.raw_number = s_.substr(start, pos_ - start);
    // from_chars, unlike strtod, accepts subnormals: every double the
    // writer spells must read back.
    const char* end = s_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(s_.data() + start, end, v.number);
    if (ec != std::errc() || ptr != end)
      fail(start, "number out of double range");
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

std::int64_t Value::as_int64() const {
  if (type != Type::Number)
    throw std::invalid_argument("JSON: expected a number");
  std::int64_t x = 0;
  const char* end = raw_number.data() + raw_number.size();
  const auto [ptr, ec] = std::from_chars(raw_number.data(), end, x);
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument("JSON: '" + raw_number +
                                "' is not an int64");
  return x;
}

int Value::as_int() const {
  const std::int64_t x = as_int64();
  if (!std::in_range<int>(x))
    throw std::invalid_argument("JSON: '" + raw_number + "' is not an int");
  return static_cast<int>(x);
}

void Value::check_keys(std::initializer_list<std::string_view> known,
                       const std::string& what) const {
  if (type != Type::Object)
    throw std::invalid_argument(what + ": expected a JSON object");
  for (const auto& [k, v] : members)
    if (std::find(known.begin(), known.end(), k) == known.end())
      throw std::invalid_argument(what + ": unknown key '" + k + "'");
}

std::int64_t Value::geti(const std::string& key, std::int64_t dflt) const {
  const Value* v = find(key);
  if (v == nullptr) return dflt;
  return v->as_int64();
}

int Value::geti32(const std::string& key, int dflt) const {
  const Value* v = find(key);
  if (v == nullptr) return dflt;
  return v->as_int();
}

double Value::getd(const std::string& key, double dflt) const {
  const Value* v = find(key);
  if (v == nullptr) return dflt;
  if (!v->is_number())
    throw std::invalid_argument("JSON: field '" + key + "' is not a number");
  return v->number;
}

std::string Value::gets(const std::string& key,
                        const std::string& dflt) const {
  const Value* v = find(key);
  if (v == nullptr) return dflt;
  if (!v->is_string())
    throw std::invalid_argument("JSON: field '" + key + "' is not a string");
  return v->str;
}

bool Value::getb(const std::string& key, bool dflt) const {
  const Value* v = find(key);
  if (v == nullptr) return dflt;
  if (!v->is_bool())
    throw std::invalid_argument("JSON: field '" + key + "' is not a boolean");
  return v->boolean;
}

Value parse(const std::string& text) { return Parser(text).document(); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xF]);
          out.push_back(kHex[c & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  // chars_format::general at a fixed precision is printf's %.17g.
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general,
                               std::numeric_limits<double>::max_digits10);
  return std::string(buf, r.ptr);
}

void Writer::next_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (nonempty_.empty()) return;
  if (nonempty_.back()) out_.push_back(',');
  nonempty_.back() = true;
  newline();
}

void Writer::newline() {
  if (layout_ == Layout::Compact) return;
  out_.push_back('\n');
  out_.append(2 * nonempty_.size(), ' ');
}

Writer& Writer::key(std::string_view k) {
  next_item();
  out_ += quote(k);
  out_ += layout_ == Layout::Pretty ? ": " : ":";
  after_key_ = true;
  return *this;
}

Writer& Writer::open(char bracket) {
  next_item();
  out_.push_back(bracket);
  nonempty_.push_back(false);
  return *this;
}

Writer& Writer::close(char bracket) {
  const bool had_items = nonempty_.back();
  nonempty_.pop_back();
  if (had_items) newline();
  out_.push_back(bracket);
  if (layout_ == Layout::Pretty && nonempty_.empty()) out_.push_back('\n');
  return *this;
}

Writer& Writer::raw(std::string_view doc) {
  next_item();
  out_ += doc;
  return *this;
}

}  // namespace json
}  // namespace rannc
