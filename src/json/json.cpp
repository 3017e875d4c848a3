#include "json/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

#include "util/strings.hpp"

namespace aequus::json {

namespace {
[[noreturn]] void fail(const char* what, std::size_t offset) {
  throw std::runtime_error(util::format("json: %s at offset %zu", what, offset));
}
}  // namespace

Value Value::frozen(Value value) {
  if (value.is_frozen()) return value;
  const std::size_t size = value.wire_size();
  return Value(std::make_shared<const Frozen>(Frozen{std::move(value), size}));
}

void Value::thaw() {
  if (is_frozen()) *this = Value(resolved());
}

bool Value::operator==(const Value& other) const {
  if (is_frozen() && other.is_frozen() &&
      std::get<std::shared_ptr<const Frozen>>(data_) ==
          std::get<std::shared_ptr<const Frozen>>(other.data_)) {
    return true;
  }
  return resolved().data_ == other.resolved().data_;
}

bool Value::as_bool() const {
  if (!is_bool()) throw std::runtime_error("json: not a bool");
  return std::get<bool>(resolved().data_);
}

double Value::as_number() const {
  if (!is_number()) throw std::runtime_error("json: not a number");
  return std::get<double>(resolved().data_);
}

std::int64_t Value::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Value::as_string() const {
  if (!is_string()) throw std::runtime_error("json: not a string");
  return std::get<std::string>(resolved().data_);
}

const Array& Value::as_array() const {
  if (!is_array()) throw std::runtime_error("json: not an array");
  return std::get<Array>(resolved().data_);
}

const Object& Value::as_object() const {
  if (!is_object()) throw std::runtime_error("json: not an object");
  return std::get<Object>(resolved().data_);
}

Array& Value::as_array() {
  if (!is_array()) throw std::runtime_error("json: not an array");
  thaw();
  return std::get<Array>(data_);
}

Object& Value::as_object() {
  if (!is_object()) throw std::runtime_error("json: not an object");
  thaw();
  return std::get<Object>(data_);
}

const Value& Value::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw std::runtime_error("json: missing key '" + key + "'");
  return it->second;
}

std::optional<std::reference_wrapper<const Value>> Value::find(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) return std::nullopt;
  return std::cref(it->second);
}

std::string Value::get_string(const std::string& key, std::string fallback) const {
  const auto found = find(key);
  if (!found || !found->get().is_string()) return fallback;
  return found->get().as_string();
}

double Value::get_number(const std::string& key, double fallback) const {
  const auto found = find(key);
  if (!found || !found->get().is_number()) return fallback;
  return found->get().as_number();
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const auto found = find(key);
  if (!found || !found->get().is_bool()) return fallback;
  return found->get().as_bool();
}

const Value& Value::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) throw std::runtime_error("json: index out of range");
  return arr[index];
}

std::size_t Value::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw std::runtime_error("json: size() on scalar");
}

namespace {
/// Escape sequence for `c` inside a JSON string, or an empty view when `c`
/// is written as itself. write_escaped() and escaped_size() both go
/// through here, so dump() and wire_size() agree byte for byte.
std::string_view escape_of(char c, char (&buffer)[6]) noexcept {
  const auto code = static_cast<unsigned char>(c);
  if (code >= 0x20 && c != '"' && c != '\\') return {};
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    case '\b': return "\\b";
    case '\f': return "\\f";
    default: break;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  buffer[0] = '\\';
  buffer[1] = 'u';
  buffer[2] = '0';
  buffer[3] = '0';
  buffer[4] = kHex[code >> 4];
  buffer[5] = kHex[code & 0xf];
  return {buffer, sizeof buffer};
}

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  char buffer[6];
  for (const char c : s) {
    const std::string_view escape = escape_of(c, buffer);
    if (escape.empty()) {
      out += c;
    } else {
      out += escape;
    }
  }
  out += '"';
}

std::size_t escaped_size(const std::string& s) noexcept {
  std::size_t size = 2;  // the quotes
  char buffer[6];
  for (const char c : s) {
    const std::string_view escape = escape_of(c, buffer);
    size += escape.empty() ? 1 : escape.size();
  }
  return size;
}

/// Renders `d` into `buffer` exactly as it goes on the wire and returns
/// the end of the text. Integral values below 1e15 print as integers; the
/// rest as 17 significant digits, which round-trip any double exactly.
/// std::to_chars, not printf: printf renders the decimal separator per
/// LC_NUMERIC, and a comma-decimal locale (de_DE) would corrupt every
/// serialized number.
char* render_number(char (&buffer)[32], double d) {
  // JSON has no NaN/inf literals; emitting "nan" would produce a document
  // the parser itself rejects. Fail at the source instead.
  if (!std::isfinite(d)) throw std::domain_error("json: cannot serialize non-finite number");
  const auto [end, ec] =
      std::fabs(d) < 1e15 && d == static_cast<double>(std::llround(d))
          ? std::to_chars(buffer, buffer + sizeof buffer, std::llround(d))
          : std::to_chars(buffer, buffer + sizeof buffer, d, std::chars_format::general, 17);
  if (ec != std::errc()) throw std::runtime_error("json: number formatting failed");
  return end;
}

void write_number(std::string& out, double d) {
  char buffer[32];
  out.append(buffer, render_number(buffer, d));
}
}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
  if (is_frozen()) {
    resolved().write(out, indent, depth);
    return;
  }
  const auto newline = [&] {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(data_) ? "true" : "false";
  } else if (is_number()) {
    write_number(out, std::get<double>(data_));
  } else if (is_string()) {
    write_escaped(out, std::get<std::string>(data_));
  } else if (is_array()) {
    const auto& arr = std::get<Array>(data_);
    out += '[';
    bool first = true;
    for (const auto& item : arr) {
      if (!first) out += ',';
      first = false;
      ++depth;
      newline();
      --depth;
      item.write(out, indent, depth + 1);
    }
    if (!arr.empty()) newline();
    out += ']';
  } else {
    const auto& obj = std::get<Object>(data_);
    out += '{';
    bool first = true;
    for (const auto& [key, item] : obj) {
      if (!first) out += ',';
      first = false;
      ++depth;
      newline();
      --depth;
      write_escaped(out, key);
      out += ':';
      if (indent > 0) out += ' ';
      item.write(out, indent, depth + 1);
    }
    if (!obj.empty()) newline();
    out += '}';
  }
}

std::string Value::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::size_t Value::wire_size() const {
  if (is_frozen()) return std::get<std::shared_ptr<const Frozen>>(data_)->wire_size;
  if (is_null()) return 4;
  if (is_bool()) return std::get<bool>(data_) ? 4 : 5;
  if (is_number()) {
    char buffer[32];
    return static_cast<std::size_t>(render_number(buffer, std::get<double>(data_)) - buffer);
  }
  if (is_string()) return escaped_size(std::get<std::string>(data_));
  std::size_t size = 2;  // the brackets or braces
  if (is_array()) {
    const auto& arr = std::get<Array>(data_);
    for (const auto& item : arr) size += item.wire_size();
    return size + (arr.empty() ? 0 : arr.size() - 1);  // commas
  }
  const auto& obj = std::get<Object>(data_);
  for (const auto& [key, item] : obj) size += escaped_size(key) + 1 + item.wire_size();
  return size + (obj.empty() ? 0 : obj.size() - 1);
}

std::string Value::pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

namespace {
/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so without a bound a hostile document ("[[[[...") would
/// overflow the stack; no document this system writes comes near it.
constexpr int kMaxDepth = 512;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_whitespace();
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return v;
  }

 private:
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) fail("unexpected character", pos_ - 1);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// Counts one nesting level for the lifetime of a container parse.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxDepth) fail("nesting too deep", parser_.pos_);
    }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  Value parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object() {
    const Nest nest(*this);
    expect('{');
    Object obj;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = advance();
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' or '}'", pos_ - 1);
    }
  }

  Value parse_array() {
    const Nest nest(*this);
    expect('[');
    Array arr;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char c = advance();
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']'", pos_ - 1);
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = advance();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape", pos_ - 1);
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported;
            // the IRS protocol is ASCII identity names).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape", pos_ - 1);
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character", pos_ - 1);
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected value", start);
    // std::from_chars, not strtod: strtod honours LC_NUMERIC, so under a
    // comma-decimal locale it would stop at the '.' and mis-parse "1.5"
    // as 1. from_chars always uses the C-locale grammar.
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size()) {
      fail("malformed number", start);
    }
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};
}  // namespace

Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::optional<Value> try_parse(std::string_view text) noexcept {
  try {
    return parse(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace aequus::json
