// Uniform JSON decoding: json::decode<T>(value).
//
// Every module used to grow its own `<type>_from_json` free function,
// which made generic code (config loaders, wire handlers) spell a
// different name per type. The Decoder<T> trait gives them all one entry
// point:
//
//   auto config = json::decode<core::FairshareConfig>(value);
//
// A type opts in by specializing Decoder<T> next to its definition:
//
//   template <>
//   struct aequus::json::Decoder<MyConfig> {
//     static MyConfig decode(const Value& value);
//   };
#pragma once

#include "json/json.hpp"

namespace aequus::json {

/// Trait hook; specializations provide `static T decode(const Value&)`.
/// The primary template is intentionally undefined so decoding a type
/// without a specialization is a compile-time error, not a link error.
template <typename T>
struct Decoder;

/// Decode `value` into a T via its Decoder specialization.
template <typename T>
[[nodiscard]] T decode(const Value& value) {
  return Decoder<T>::decode(value);
}

}  // namespace aequus::json
