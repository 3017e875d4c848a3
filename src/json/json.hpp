// Minimal JSON value model, parser, and serializer.
//
// The paper's Identity Resolution Service (IRS) speaks a "minimalist JSON
// based protocol" with custom name-resolution endpoints (§III-B). This
// module implements exactly enough of RFC 8259 for that protocol and for
// the policy/usage wire formats used by the simulated service bus:
// objects, arrays, strings (with escapes), numbers, booleans, and null.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace aequus::json {

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, number (double), string, array, or object.
///
/// Value semantics throughout; copies are deep. Accessors are checked and
/// throw std::runtime_error on type mismatch, keeping protocol-decoding
/// call sites terse.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(std::int64_t i) : data_(static_cast<double>(i)) {}
  Value(std::size_t i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_number() const noexcept { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<Object>(data_); }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object member access; throws if not an object or key missing.
  [[nodiscard]] const Value& at(const std::string& key) const;

  /// Object member lookup; nullopt when absent (still throws on non-object).
  [[nodiscard]] std::optional<std::reference_wrapper<const Value>> find(
      const std::string& key) const;

  /// Convenience typed getters with defaults, for tolerant protocol decode.
  [[nodiscard]] std::string get_string(const std::string& key, std::string fallback = "") const;
  [[nodiscard]] double get_number(const std::string& key, double fallback = 0.0) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback = false) const;

  /// Array element access; throws if not an array or out of range.
  [[nodiscard]] const Value& at(std::size_t index) const;

  [[nodiscard]] std::size_t size() const;

  /// Serialize compactly (no whitespace). Stable key order (std::map).
  [[nodiscard]] std::string dump() const;

  /// Exact length of dump() in bytes, computed without building the
  /// string (no allocation). Throws std::domain_error on a non-finite
  /// number, as dump() does.
  [[nodiscard]] std::size_t wire_size() const;

  /// Serialize with 2-space indentation.
  [[nodiscard]] std::string pretty() const;

  bool operator==(const Value& other) const = default;

 private:
  void write(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parse a complete JSON document. Throws std::runtime_error with a byte
/// offset on malformed input; trailing garbage is an error, and so is
/// nesting arrays/objects more than 512 levels deep.
[[nodiscard]] Value parse(std::string_view text);

/// Parse, returning nullopt instead of throwing.
[[nodiscard]] std::optional<Value> try_parse(std::string_view text) noexcept;

}  // namespace aequus::json
