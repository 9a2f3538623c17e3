#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace ocn::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; null is the conventional lossy encoding and
    // keeps the document parseable by any consumer.
    out += "null";
    return;
  }
  // Negative zero must keep both its sign and its double-ness: the integral
  // fast path below would print it as "0", and the shortest to_chars form
  // "-0" would parse back as the integer 0.
  if (d == 0.0 && std::signbit(d)) {
    out += "-0.0";
    return;
  }
  // Integral values print as integers: "4000", not an exponent form.
  // Readers treat int and double numerically equal.
  if (d == std::floor(d) && std::abs(d) < 9.0e15) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  // std::to_chars emits the shortest representation that round-trips, and —
  // unlike the snprintf("%g")/sscanf("%lf") pair this replaces — is
  // locale-independent: under a ','-decimal locale %g prints "1,5", which
  // any standard JSON reader then truncates to 1.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, res.ptr);
}

class Parser {
 public:
  /// Deepest array/object nesting a document may have. The parser recurses
  /// once per level, so without a bound a run of '[' overflows the stack;
  /// reports nest a handful of levels.
  static constexpr int kMaxNesting = 256;

  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// One level of array/object nesting, refused beyond kMaxNesting.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxNesting) {
        p_.fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
      }
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': {
        const Nest nest(*this);
        return parse_object();
      }
      case '[': {
        const Nest nest(*this);
        return parse_array();
      }
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned cp = parse_hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00-\uDFFF.
              if (peek() != '\\') fail("unpaired surrogate");
              ++pos_;
              if (peek() != 'u') fail("unpaired surrogate");
              ++pos_;
              const unsigned lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            append_utf8(out, cp);
            break;
          }
          default: fail("bad escape character");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      out += c;
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
      fail("bad number");
    const std::string tok(text_.substr(start, pos_ - start));
    if (!is_double) {
      try {
        std::size_t used = 0;
        const std::int64_t v = std::stoll(tok, &used);
        if (used == tok.size()) return Json(v);
      } catch (const std::out_of_range&) {
        // Falls through to double below.
      }
    }
    // from_chars, not stod: stod is locale-sensitive (it would stop at the
    // '.' under a ','-decimal locale and silently return the integer part).
    double v = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      fail("bad number");
    }
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::int64_t Json::as_int() const {
  if (is_int()) return std::get<std::int64_t>(v_);
  if (!is_number()) throw std::runtime_error("json: not a number");
  // [-2^63, 2^63): a double outside it (or NaN) has no int64 value, and
  // casting it would be undefined behaviour.
  const double d = std::get<double>(v_);
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    throw std::runtime_error("json: number outside the int64 range");
  }
  return static_cast<std::int64_t>(d);
}

double Json::as_number() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  return std::get<double>(v_);
}

Json& Json::set(std::string key, Json value) {
  auto& obj = std::get<Object>(v_);
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::push(Json value) {
  std::get<Array>(v_).push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(v_).size();
  if (is_object()) return std::get<Object>(v_).size();
  return 0;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_int()) {
    out += std::to_string(std::get<std::int64_t>(v_));
  } else if (std::holds_alternative<double>(v_)) {
    append_double(out, std::get<double>(v_));
  } else if (is_string()) {
    append_escaped(out, as_string());
  } else if (is_array()) {
    const auto& arr = std::get<Array>(v_);
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const Json& v : arr) {
      if (!first) out += ',';
      first = false;
      newline_pad(depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    newline_pad(depth);
    out += ']';
  } else {
    const auto& obj = std::get<Object>(v_);
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      newline_pad(depth + 1);
      append_escaped(out, k);
      out += ':';
      if (indent > 0) out += ' ';
      v.dump_to(out, indent, depth + 1);
    }
    newline_pad(depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

bool operator==(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) {
    if (a.is_int() && b.is_int()) return a.as_int() == b.as_int();
    return a.as_number() == b.as_number();
  }
  return a.v_ == b.v_;
}

}  // namespace ocn::obs
