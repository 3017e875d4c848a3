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
struct Frozen;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, number (double), string, array, or object.
///
/// Value semantics throughout; copies are deep, except for a frozen value
/// (see frozen()), which is immutable and shared. Accessors are checked
/// and throw std::runtime_error on type mismatch, keeping
/// protocol-decoding call sites terse.
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

  /// An immutable, shared copy of `value` with its wire_size() computed
  /// once. Copying the result costs one reference count; every const
  /// accessor, dump() and pretty() read through to the held value, and
  /// the mutable as_array()/as_object() first replace the copy they are
  /// called on with a deep copy (copy-on-write), so a frozen value is
  /// never changed in place. Freezing a frozen value returns it as is.
  /// Throws std::domain_error on a non-finite number, as dump() does.
  [[nodiscard]] static Value frozen(Value value);

  /// True when this value is a frozen() one (shared, immutable).
  [[nodiscard]] bool is_frozen() const noexcept {
    return std::holds_alternative<std::shared_ptr<const Frozen>>(data_);
  }

  /// Identity of a frozen value: a weak reference to its shared state,
  /// empty when the value is not frozen. It does not keep the value
  /// alive, and while it is held no other frozen value can take the
  /// identity over, so same_frozen() is exact.
  [[nodiscard]] std::weak_ptr<const Frozen> frozen_identity() const noexcept {
    const auto* frozen = std::get_if<std::shared_ptr<const Frozen>>(&data_);
    return frozen != nullptr ? std::weak_ptr<const Frozen>(*frozen)
                             : std::weak_ptr<const Frozen>();
  }

  /// True when this value is the frozen value `identity` was taken from
  /// (or a copy of it). O(1): compares the shared state, not the contents.
  [[nodiscard]] bool same_frozen(const std::weak_ptr<const Frozen>& identity) const noexcept {
    const auto* frozen = std::get_if<std::shared_ptr<const Frozen>>(&data_);
    return frozen != nullptr && !frozen->owner_before(identity) &&
           !identity.owner_before(*frozen);
  }

  [[nodiscard]] bool is_null() const noexcept { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const noexcept { return holds<bool>(); }
  [[nodiscard]] bool is_number() const noexcept { return holds<double>(); }
  [[nodiscard]] bool is_string() const noexcept { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const noexcept { return holds<Array>(); }
  [[nodiscard]] bool is_object() const noexcept { return holds<Object>(); }

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

  /// Structural equality; a frozen value equals its unfrozen original.
  /// Two copies of one frozen value compare equal without a walk.
  [[nodiscard]] bool operator==(const Value& other) const;

 private:
  explicit Value(std::shared_ptr<const Frozen> frozen) : data_(std::move(frozen)) {}
  /// The value this one stands for: the held value when frozen, else
  /// *this. Frozen values never nest, so this is at most one hop.
  [[nodiscard]] const Value& resolved() const noexcept;
  template <typename T>
  [[nodiscard]] bool holds() const noexcept {
    return std::holds_alternative<T>(resolved().data_);
  }
  /// Replace a frozen value with a private deep copy before a mutation.
  void thaw();
  void write(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object,
               std::shared_ptr<const Frozen>>
      data_;
};

/// What a frozen Value shares: the immutable value and its memoized
/// wire_size().
struct Frozen {
  Value value;
  std::size_t wire_size = 0;
};

inline const Value& Value::resolved() const noexcept {
  const auto* frozen = std::get_if<std::shared_ptr<const Frozen>>(&data_);
  return frozen != nullptr ? (*frozen)->value : *this;
}

/// Parse a complete JSON document. Throws std::runtime_error with a byte
/// offset on malformed input; trailing garbage is an error, and so is
/// nesting arrays/objects more than 512 levels deep.
[[nodiscard]] Value parse(std::string_view text);

/// Parse, returning nullopt instead of throwing.
[[nodiscard]] std::optional<Value> try_parse(std::string_view text) noexcept;

}  // namespace aequus::json
