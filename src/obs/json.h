// Minimal JSON document model for the observability layer: enough to emit
// the stable bench-report schema and to parse it back (round-trip tests,
// baseline tooling). Deliberately small — no external dependency, no DOM
// tricks: a Json is a tagged value; objects preserve insertion order so
// serialized reports are byte-stable for golden files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ocn::obs {

class Json {
 public:
  using Array = std::vector<Json>;
  /// Key/value pairs in insertion order (stable output beats O(log n) lookup
  /// at the sizes reports have).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(std::int64_t i) : v_(i) {}
  Json(int i) : v_(static_cast<std::int64_t>(i)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  /// True for both integer- and double-valued numbers.
  bool is_number() const { return is_int() || std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  /// An integer, or a double truncated toward zero. Throws
  /// std::runtime_error for a non-number and for a double outside
  /// [-2^63, 2^63) (NaN included), which has no int64 value.
  std::int64_t as_int() const;
  double as_number() const;
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }

  /// Object insert-or-overwrite; returns *this for chaining.
  Json& set(std::string key, Json value);
  /// Object lookup; nullptr when absent (or when not an object).
  const Json* find(std::string_view key) const;
  /// Array append.
  Json& push(Json value);

  std::size_t size() const;

  /// Serialize. indent == 0: compact single line; indent > 0: pretty-printed
  /// with that many spaces per level. Key order is insertion order, so equal
  /// documents serialize identically.
  std::string dump(int indent = 0) const;

  /// Parse a complete JSON document. Throws std::runtime_error with a byte
  /// offset on malformed input, trailing garbage or arrays and objects
  /// nested more than 256 deep.
  static Json parse(std::string_view text);

  /// Structural equality. Integer-valued and double-valued numbers compare
  /// equal when they represent the same value (1 == 1.0), so a document
  /// survives a dump/parse round trip regardless of number representation.
  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      v_;
};

}  // namespace ocn::obs
