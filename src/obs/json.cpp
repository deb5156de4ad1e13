#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <system_error>

namespace esg::obs::json {

using common::Errc;
using common::Error;
using common::Result;

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string Value::string_or(std::string_view key,
                             std::string fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  // Bounds nesting so a malformed document cannot blow the stack.
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t' ||
                       text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  Error err(std::string message) const {
    return Error{Errc::protocol_error,
                 "json: " + std::move(message) + " at offset " +
                     std::to_string(pos)};
  }

  Result<Value> value() {
    skip_ws();
    if (done()) return err("unexpected end of input");
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s) return s.error();
      return Value(std::move(*s));
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  Result<Value> object() {
    if (++depth > kMaxDepth) return err("nesting too deep");
    ++pos;  // '{'
    Object members;
    skip_ws();
    if (!done() && peek() == '}') {
      ++pos;
      --depth;
      return Value(std::move(members));
    }
    while (true) {
      skip_ws();
      if (done() || peek() != '"') return err("expected object key");
      auto key = string();
      if (!key) return key.error();
      skip_ws();
      if (done() || peek() != ':') return err("expected ':'");
      ++pos;
      auto v = value();
      if (!v) return v.error();
      members.emplace_back(std::move(*key), std::move(*v));
      skip_ws();
      if (done()) return err("unterminated object");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      if (peek() == '}') {
        ++pos;
        --depth;
        return Value(std::move(members));
      }
      return err("expected ',' or '}'");
    }
  }

  Result<Value> array() {
    if (++depth > kMaxDepth) return err("nesting too deep");
    ++pos;  // '['
    Array items;
    skip_ws();
    if (!done() && peek() == ']') {
      ++pos;
      --depth;
      return Value(std::move(items));
    }
    while (true) {
      auto v = value();
      if (!v) return v.error();
      items.push_back(std::move(*v));
      skip_ws();
      if (done()) return err("unterminated array");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      if (peek() == ']') {
        ++pos;
        --depth;
        return Value(std::move(items));
      }
      return err("expected ',' or ']'");
    }
  }

  Result<std::string> string() {
    ++pos;  // '"'
    std::string out;
    while (!done()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (done()) break;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) return err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return err("bad \\u escape");
            }
          }
          // Our writers only escape control characters; anything in the
          // Latin-1 range round-trips, higher code points degrade to '?'.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return err("unknown escape");
      }
    }
    return err("unterminated string");
  }

  Result<Value> boolean() {
    if (text.substr(pos, 4) == "true") {
      pos += 4;
      return Value(true);
    }
    if (text.substr(pos, 5) == "false") {
      pos += 5;
      return Value(false);
    }
    return err("bad literal");
  }

  Result<Value> null() {
    if (text.substr(pos, 4) == "null") {
      pos += 4;
      return Value();
    }
    return err("bad literal");
  }

  Result<Value> number() {
    const std::size_t start = pos;
    if (!done() && (peek() == '-' || peek() == '+')) ++pos;
    while (!done() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                       peek() == '.' || peek() == 'e' || peek() == 'E' ||
                       peek() == '+' || peek() == '-')) {
      ++pos;
    }
    if (pos == start) return err("expected a value");
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return err("bad number");
    // An integer lexeme that fits 64 bits also keeps its exact value.
    const std::size_t sign = token[0] == '-' ? 1 : 0;
    std::uint64_t magnitude = 0;
    const char* last = token.data() + token.size();
    const auto [stop, ec] =
        std::from_chars(token.data() + sign, last, magnitude);
    if (ec == std::errc() && stop == last) {
      return Value(d, magnitude);
    }
    return Value(d);
  }
};

}  // namespace

Result<Value> parse(std::string_view text) {
  Parser p{text};
  auto v = p.value();
  if (!v) return v;
  p.skip_ws();
  if (!p.done()) return p.err("trailing garbage");
  return v;
}

}  // namespace esg::obs::json
