// Minimal JSON value model + recursive-descent parser.
//
// The observability layer *writes* JSON in several places (metrics
// snapshots, Chrome traces, BENCH_*.json, run manifests); the analysis side
// — manifest diffing, bench gating, offline postmortems — has to *read* it
// back.  This is a deliberately small, dependency-free reader covering the
// JSON subset our own exporters emit: objects, arrays, strings with the
// escapes json_escape() produces, numbers, bools, null.  A number whose
// lexeme is an integer keeps its exact value beside the double, so 64-bit
// seeds and digests read back unchanged.  Object keys keep
// insertion order (our writers emit deterministically sorted documents, and
// keeping their order makes re-serialization byte-stable).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace esg::obs::json {

class Value;
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type { null, boolean, number, string, array, object };

  Value() = default;
  explicit Value(bool b) : type_(Type::boolean), bool_(b) {}
  explicit Value(double d) : type_(Type::number), number_(d) {}
  /// A number written as an integer: `d` is its nearest double and
  /// `magnitude` its exact absolute value (the sign is d's).
  Value(double d, std::uint64_t magnitude)
      : type_(Type::number), exact_(true), number_(d), magnitude_(magnitude) {}
  explicit Value(std::string s) : type_(Type::string), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::array), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::object), object_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::null; }
  bool is_number() const { return type_ == Type::number; }
  bool is_string() const { return type_ == Type::string; }
  bool is_array() const { return type_ == Type::array; }
  bool is_object() const { return type_ == Type::object; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const {
    static const Array empty;
    return array_ ? *array_ : empty;
  }
  const Object& as_object() const {
    static const Object empty;
    return object_ ? *object_ : empty;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Member's number/string with a fallback — the common access pattern.
  double number_or(std::string_view key, double fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;

  /// This value as an integer of type T.  A value that is not a number,
  /// has a fraction, or lies outside T's range yields 0 and clears `ok`, so
  /// a decoder reads every field and then fails once.  Decoders read
  /// integers only through this (or int_or): casting an out-of-range double
  /// to an integer is undefined behaviour.  An integer lexeme is read
  /// exactly; any other number through its double.
  template <typename T>
  T as_int(bool& ok) const {
    static_assert(std::is_integral_v<T>);
    if (exact_) {
      const auto max =
          static_cast<std::uint64_t>(std::numeric_limits<T>::max());
      if (!std::signbit(number_) || magnitude_ == 0) {
        if (magnitude_ <= max) return static_cast<T>(magnitude_);
      } else if constexpr (std::is_signed_v<T>) {
        // -(m - 1) - 1 reaches T's minimum without overflowing.
        if (magnitude_ - 1 <= max) {
          return static_cast<T>(-static_cast<T>(magnitude_ - 1) - 1);
        }
      }
      ok = false;
      return 0;
    }
    // 2^digits is exact in a double; T's max may not be.
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double low = std::is_signed_v<T> ? -limit : 0.0;
    if (!is_number() || number_ != std::trunc(number_) || number_ < low ||
        number_ >= limit) {
      ok = false;
      return 0;
    }
    return static_cast<T>(number_);
  }
  /// Member `key` through as_int(); `fallback` when absent.
  template <typename T>
  T int_or(std::string_view key, T fallback, bool& ok) const {
    const Value* v = find(key);
    return v != nullptr ? v->as_int<T>(ok) : fallback;
  }

 private:
  Type type_ = Type::null;
  bool bool_ = false;
  bool exact_ = false;  // number_ came from an integer lexeme
  double number_ = 0.0;
  std::uint64_t magnitude_ = 0;  // |integer| when exact_
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error).
common::Result<Value> parse(std::string_view text);

}  // namespace esg::obs::json
