#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "json/json.hpp"
#include "testing/generators.hpp"
#include "testing/property.hpp"
#include "util/rng.hpp"

namespace aequus::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, NestedStructures) {
  const Value v = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.at("a").size(), 3u);
  EXPECT_TRUE(v.at("a").at(2).at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
}

TEST(JsonParse, WhitespaceTolerant) {
  const Value v = parse("  { \"a\" :\n[ 1 ,\t2 ] } ");
  EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_EQ(parse("[]").size(), 0u);
  EXPECT_EQ(parse("{}").size(), 0u);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("tru"), std::runtime_error);
  EXPECT_THROW(parse("1 2"), std::runtime_error);
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
}

TEST(JsonParse, TryParseReturnsNulloptOnError) {
  EXPECT_FALSE(try_parse("{bad}").has_value());
  EXPECT_TRUE(try_parse("{}").has_value());
}

TEST(JsonDump, RoundTripsThroughText) {
  const Value original = parse(R"({"x": [1, "two", null, false], "y": {"z": 0.5}})");
  const Value reparsed = parse(original.dump());
  EXPECT_EQ(original, reparsed);
}

TEST(JsonDump, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(Value(42.0).dump(), "42");
  EXPECT_EQ(Value(2.5).dump(), "2.5");
}

TEST(JsonDump, EscapesSpecialCharacters) {
  EXPECT_EQ(Value("a\"b\nc").dump(), R"("a\"b\nc")");
}

TEST(JsonDump, PrettyContainsNewlines) {
  const Value v = parse(R"({"a": 1})");
  EXPECT_NE(v.pretty().find('\n'), std::string::npos);
  EXPECT_EQ(parse(v.pretty()), v);
}

TEST(JsonAccess, TypedGettersWithDefaults) {
  const Value v = parse(R"({"s": "str", "n": 4, "b": true})");
  EXPECT_EQ(v.get_string("s"), "str");
  EXPECT_EQ(v.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(v.get_string("n", "dflt"), "dflt");  // wrong type -> default
  EXPECT_DOUBLE_EQ(v.get_number("n"), 4.0);
  EXPECT_DOUBLE_EQ(v.get_number("b", -1.0), -1.0);
  EXPECT_TRUE(v.get_bool("b"));
  EXPECT_TRUE(v.get_bool("missing", true));
}

TEST(JsonAccess, AsIntRounds) {
  EXPECT_EQ(parse("2.7").as_int(), 3);
  EXPECT_EQ(parse("-2.7").as_int(), -3);
}

TEST(JsonAccess, ThrowsOnTypeMismatch) {
  const Value v = parse("[1]");
  EXPECT_THROW((void)v.as_object(), std::runtime_error);
  EXPECT_THROW((void)v.at("key"), std::runtime_error);
  EXPECT_THROW((void)v.at(5), std::runtime_error);
  EXPECT_THROW((void)parse("3").size(), std::runtime_error);
}

TEST(JsonAccess, FindReturnsNulloptForMissingKey) {
  const Value v = parse(R"({"a": 1})");
  EXPECT_TRUE(v.find("a").has_value());
  EXPECT_FALSE(v.find("b").has_value());
}

TEST(JsonBuild, ProgrammaticConstruction) {
  Object obj;
  obj["list"] = Array{Value(1), Value("two")};
  obj["flag"] = true;
  const Value v(std::move(obj));
  EXPECT_EQ(v.dump(), R"({"flag":true,"list":[1,"two"]})");
}

TEST(JsonDump, RejectsNonFiniteNumbers) {
  EXPECT_THROW((void)Value(std::numeric_limits<double>::quiet_NaN()).dump(),
               std::domain_error);
  EXPECT_THROW((void)Value(std::numeric_limits<double>::infinity()).dump(),
               std::domain_error);
  EXPECT_THROW((void)Value(-std::numeric_limits<double>::infinity()).dump(),
               std::domain_error);
  // Also when buried inside a container.
  Object obj;
  obj["x"] = Value(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW((void)Value(std::move(obj)).dump(), std::domain_error);
}

TEST(JsonParse, RejectsNonFiniteTokens) {
  EXPECT_THROW(parse("nan"), std::runtime_error);
  EXPECT_THROW(parse("inf"), std::runtime_error);
  EXPECT_THROW(parse("-inf"), std::runtime_error);
  EXPECT_THROW(parse("Infinity"), std::runtime_error);
}

TEST(JsonDump, DeeplyNestedStructuresRoundTrip) {
  Value v(1.0);
  for (int i = 0; i < 64; ++i) {
    Object obj;
    obj["nest"] = std::move(v);
    Array arr;
    arr.push_back(Value(std::move(obj)));
    v = Value(std::move(arr));
  }
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_EQ(parse(v.pretty()), v);
}

TEST(JsonDump, Utf8AndEscapesRoundTrip) {
  // Multi-byte UTF-8 passes through byte-exact; \uXXXX escapes decode to
  // the same bytes on the way back in.
  const std::string original = "é λ → \"q\" \\ \n \t \x01";
  const Value v(original);
  EXPECT_EQ(parse(v.dump()).as_string(), original);
  EXPECT_EQ(parse("\"\\u00e9 \\u03bb \\u2192\"").as_string(), "é λ →");
}

TEST(JsonProperty, RandomDocumentsRoundTripThroughText) {
  // 500 seeded documents: dump -> parse -> dump must be a fixed point and
  // compare equal. A failure reports the seed; replay it alone with
  // AEQUUS_PROPERTY_SEED=<seed>.
  const auto outcome = aequus::testing::run_property(
      "json-round-trip", 500, 0x150, [](std::uint64_t seed) {
        util::Rng rng(seed);
        const Value original = aequus::testing::random_json(rng, 5);
        const std::string text = original.dump();
        const Value reparsed = parse(text);
        aequus::testing::require(reparsed == original, "reparse != original");
        aequus::testing::require(reparsed.dump() == text, "dump not a fixed point");
        aequus::testing::require(parse(original.pretty()) == original,
                                 "pretty round trip failed");
      });
  EXPECT_TRUE(outcome.passed) << outcome.summary();
}

/// wire_size() must equal the length of what dump() writes.
void expect_wire_size_matches(const Value& v) {
  EXPECT_EQ(v.wire_size(), v.dump().size()) << v.dump();
}

TEST(JsonWireSize, IntegerBranchEdges) {
  // 1e15 is where dump() switches from the integer rendering to 17
  // significant digits; 2^53 is the last exactly representable integer.
  for (const double d : {0.0, -0.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 9007199254740992.0,
                         -9007199254740992.0, 1.0, -1.0, 42.0}) {
    expect_wire_size_matches(Value(d));
  }
  EXPECT_EQ(Value(-0.0).dump(), "0");
  EXPECT_EQ(Value(1e15 - 1).dump(), "999999999999999");
  EXPECT_EQ(Value(-(1e15 - 1)).dump(), "-999999999999999");
}

TEST(JsonWireSize, SeventeenDigitDoubles) {
  for (const double d : {0.1, 1.0 / 3.0, -1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                         -1.7976931348623157e308, 0.5, 1e-7, 123456.789}) {
    expect_wire_size_matches(Value(d));
    EXPECT_EQ(parse(Value(d).dump()).as_number(), d);
  }
}

TEST(JsonWireSize, EveryEscapeAndControlCharacterInKeysAndStrings) {
  std::string every;
  for (int c = 0; c < 0x20; ++c) every += static_cast<char>(c);
  every += "\"\\/ plain \x7f é λ →";
  expect_wire_size_matches(Value(every));
  for (int c = 0; c < 0x80; ++c) {
    const std::string one(1, static_cast<char>(c));
    expect_wire_size_matches(Value(one));
    expect_wire_size_matches(Value(Object{{one, Value(one)}}));
  }
  Object keyed;
  keyed[every] = Value(every);
  expect_wire_size_matches(Value(std::move(keyed)));
  EXPECT_EQ(Value(std::string(1, '\x01')).dump(), "\"\\u0001\"");
  EXPECT_EQ(Value(std::string(1, '\x1f')).dump(), "\"\\u001f\"");
}

TEST(JsonWireSize, ScalarsAndEmptyContainers) {
  for (const Value& v : {Value(), Value(true), Value(false), Value(""), Value(Array{}),
                         Value(Object{}), Value(Array{Value(Array{}), Value(Object{})})}) {
    expect_wire_size_matches(v);
  }
  EXPECT_EQ(Value(Array{}).wire_size(), 2u);
  EXPECT_EQ(Value(Object{}).wire_size(), 2u);
}

TEST(JsonWireSize, NonFiniteNumbersThrowLikeDump) {
  for (const double d : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)Value(d).dump(), std::domain_error);
    EXPECT_THROW((void)Value(d).wire_size(), std::domain_error);
    const Value nested(Array{Value(Object{{"x", Value(d)}})});
    EXPECT_THROW((void)nested.dump(), std::domain_error);
    EXPECT_THROW((void)nested.wire_size(), std::domain_error);
  }
}

TEST(JsonProperty, WireSizeEqualsDumpLength) {
  // 500 seeded nested documents; replay a failing seed alone with
  // AEQUUS_PROPERTY_SEED=<seed>.
  const auto outcome = aequus::testing::run_property(
      "json-wire-size", 500, 0x5123, [](std::uint64_t seed) {
        util::Rng rng(seed);
        const Value v = aequus::testing::random_json(rng, 6);
        aequus::testing::require(v.wire_size() == v.dump().size(),
                                 "wire_size() != dump().size() for " + v.dump());
      });
  EXPECT_TRUE(outcome.passed) << outcome.summary();
}

/// frozen(v) must be indistinguishable from v on every read.
void expect_frozen_matches(const Value& v) {
  const Value frozen = Value::frozen(v);
  EXPECT_TRUE(frozen.is_frozen());
  EXPECT_EQ(frozen.dump(), v.dump());
  EXPECT_EQ(frozen.pretty(), v.pretty());
  EXPECT_EQ(frozen.wire_size(), v.dump().size());
  EXPECT_EQ(frozen, v);
  EXPECT_EQ(v, frozen);
  EXPECT_EQ(frozen.is_object(), v.is_object());
  EXPECT_EQ(frozen.is_array(), v.is_array());
}

TEST(JsonFrozen, ReadsThroughToTheHeldValue) {
  const Value doc = parse(R"({"users":{"alice":[[0,1.5],[60,2]],"bob":[]},"ok":true})");
  for (const Value& v : {doc, Value(), Value(false), Value(3.25), Value("s\n\"q"),
                         Value(Array{}), Value(Object{})}) {
    expect_frozen_matches(v);
  }
  const Value frozen = Value::frozen(doc);
  EXPECT_EQ(frozen.at("users").at("alice").at(1).at(0).as_number(), 60.0);
  EXPECT_EQ(frozen.size(), 2u);
  EXPECT_TRUE(frozen.get_bool("ok"));
  EXPECT_FALSE(frozen.find("missing").has_value());
  EXPECT_EQ(frozen.get_string("missing", "fallback"), "fallback");
  EXPECT_THROW((void)frozen.as_array(), std::runtime_error);
  const Value number = Value::frozen(Value(2.6));
  EXPECT_EQ(number.as_int(), 3);
  EXPECT_THROW((void)number.size(), std::runtime_error);
  EXPECT_NE(Value::frozen(Value(1.0)), Value(2.0));
}

TEST(JsonFrozen, NestedInsideOrdinaryContainers) {
  const Value inner = parse(R"({"a":[1,2,{"b":null}],"c":"d"})");
  const Value frozen = Value::frozen(inner);
  const Value plain_array(Array{inner, Value(7)});
  const Value mixed_array(Array{frozen, Value(7)});
  EXPECT_EQ(mixed_array.dump(), plain_array.dump());
  EXPECT_EQ(mixed_array.pretty(), plain_array.pretty());
  EXPECT_EQ(mixed_array.wire_size(), plain_array.dump().size());
  EXPECT_EQ(mixed_array, plain_array);
  const Value plain_object(Object{{"x", inner}, {"y", Value(Array{inner})}});
  const Value mixed_object(Object{{"x", frozen}, {"y", Value(Array{frozen})}});
  EXPECT_EQ(mixed_object.dump(), plain_object.dump());
  EXPECT_EQ(mixed_object.pretty(), plain_object.pretty());
  EXPECT_EQ(mixed_object.wire_size(), plain_object.dump().size());
  EXPECT_EQ(mixed_object, plain_object);
  expect_frozen_matches(mixed_object);
}

TEST(JsonFrozen, MutationCopiesOnWrite) {
  const Value original = Value::frozen(parse(R"({"k":[1,2],"n":{"m":3}})"));
  const std::string before = original.dump();
  Value object_copy = original;
  Value array_copy = original.at("k");
  Value untouched = original;
  EXPECT_EQ(object_copy, original);  // one shared value until written

  object_copy.as_object()["k"] = Value("changed");
  EXPECT_FALSE(object_copy.is_frozen());
  EXPECT_EQ(object_copy.dump(), R"({"k":"changed","n":{"m":3}})");
  EXPECT_NE(object_copy, original);

  Value frozen_array = Value::frozen(array_copy);
  Value frozen_array_copy = frozen_array;
  frozen_array_copy.as_array().push_back(Value(3));
  EXPECT_EQ(frozen_array_copy.dump(), "[1,2,3]");
  EXPECT_EQ(frozen_array.dump(), "[1,2]");
  EXPECT_EQ(frozen_array.wire_size(), 5u);

  EXPECT_EQ(original.dump(), before);
  EXPECT_EQ(untouched.dump(), before);
  EXPECT_EQ(original.wire_size(), before.size());
  EXPECT_TRUE(original.is_frozen());
  EXPECT_TRUE(untouched.is_frozen());
}

TEST(JsonFrozen, FreezingAFrozenValueDoesNotNest) {
  const Value once = Value::frozen(parse(R"([{"a":1}])"));
  const Value twice = Value::frozen(once);
  EXPECT_TRUE(twice.is_frozen());
  EXPECT_EQ(twice, once);
  // The held value is the plain document, not another frozen layer: a
  // write through the twice-frozen copy thaws straight to a plain array.
  Value copy = twice;
  copy.as_array().clear();
  EXPECT_FALSE(copy.is_frozen());
  EXPECT_EQ(copy.dump(), "[]");
  EXPECT_EQ(once.dump(), R"([{"a":1}])");
  EXPECT_EQ(Value::frozen(Value::frozen(Value::frozen(Value(1)))).dump(), "1");
}

TEST(JsonFrozen, NonFiniteNumbersThrowFromFrozen) {
  for (const double d : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)Value::frozen(Value(d)), std::domain_error);
    EXPECT_THROW((void)Value::frozen(Value(Array{Value(Object{{"x", Value(d)}})})),
                 std::domain_error);
  }
}

TEST(JsonProperty, FrozenValuesMatchTheirOriginals) {
  // 300 seeded documents, each compared frozen vs plain and nested in an
  // ordinary container, then mutated through a copy. Replay a failing
  // seed alone with AEQUUS_PROPERTY_SEED=<seed>.
  const auto outcome = aequus::testing::run_property(
      "json-frozen", 300, 0xf502, [](std::uint64_t seed) {
        util::Rng rng(seed);
        const Value original = aequus::testing::random_json(rng, 5);
        const std::string text = original.dump();
        const Value frozen = Value::frozen(original);
        aequus::testing::require(frozen.dump() == text, "dump differs");
        aequus::testing::require(frozen.pretty() == original.pretty(), "pretty differs");
        aequus::testing::require(frozen.wire_size() == text.size(), "wire_size differs");
        aequus::testing::require(frozen == original && original == frozen, "== differs");
        aequus::testing::require(Value::frozen(frozen) == frozen, "refreeze differs");
        const Value nested(Object{{"doc", frozen}, {"list", Value(Array{frozen, original})}});
        const Value plain(Object{{"doc", original}, {"list", Value(Array{original, original})}});
        aequus::testing::require(nested.dump() == plain.dump(), "nested dump differs");
        aequus::testing::require(nested.wire_size() == plain.dump().size(),
                                 "nested wire_size differs");
        aequus::testing::require(nested == plain, "nested == differs");
        Value copy = frozen;
        if (copy.is_object()) {
          copy.as_object()["\x01mutated"] = Value(1);
        } else if (copy.is_array()) {
          copy.as_array().push_back(Value(1));
        }
        aequus::testing::require(frozen.dump() == text && frozen.wire_size() == text.size(),
                                 "a copy's mutation reached the frozen original");
        aequus::testing::require(original.dump() == text, "the source document changed");
      });
  EXPECT_TRUE(outcome.passed) << outcome.summary();
}

TEST(JsonParse, RejectsHostileNestingDepthWithoutCrashing) {
  const std::string bomb(1000000, '[');
  try {
    (void)parse(bomb);
    FAIL() << "a million nested '[' parsed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("json: ", 0), 0u) << what;
    EXPECT_NE(what.find(" at offset "), std::string::npos) << what;
  }
  EXPECT_FALSE(try_parse(std::string(100000, '{')).has_value());
}

TEST(JsonParse, AcceptsDocumentsNested64Deep) {
  const std::string arrays = std::string(64, '[') + std::string(64, ']');
  Value v = parse(arrays);
  for (int depth = 1; depth < 64; ++depth) v = Value(v.at(0));
  EXPECT_EQ(v, Value(Array{}));
  std::string objects;
  for (int i = 0; i < 64; ++i) objects += "{\"k\":";
  objects += "1";
  objects += std::string(64, '}');
  EXPECT_EQ(parse(objects).dump(), objects);
}

}  // namespace
}  // namespace aequus::json
