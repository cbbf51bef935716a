// Minimal JSON parser shared by tools/lgg_inspect and perfbench.
// Deliberately small: objects, arrays, strings, numbers, booleans, null;
// numbers as double.  Integer fields up to 2^53 round-trip exactly through
// double, far beyond any bounded run's counters.  Numbers follow the
// RFC 8259 grammar and must be finite (the emitter writes non-finite
// doubles as null); nesting deeper than kMaxDepth is a parse error rather
// than a stack overflow.  Dependency-free so the inspector stays honest —
// it cannot accidentally share (and therefore mask) a bug with the
// obs::JsonWriter emitter it checks.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace minijson {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<ValuePtr> array;
  std::vector<std::pair<std::string, ValuePtr>> object;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return v.get();
    }
    return nullptr;
  }
};

/// The field `key` of `obj`, which must exist with kind `kind`; throws
/// "<in> needs <key>" otherwise.
[[nodiscard]] inline const Value* require(const Value& obj, const char* key,
                                          Value::Kind kind, const char* in) {
  const Value* v = obj.find(key);
  if (v == nullptr || v->kind != kind) {
    throw std::runtime_error(std::string(in) + " needs " + key);
  }
  return v;
}

/// require() for fields that only have to be present.
inline void require_present(const Value& obj, const char* key,
                            Value::Kind kind, const char* in) {
  (void)require(obj, key, kind, in);
}

/// Deepest accepted nesting of arrays and objects.  Emitted telemetry
/// nests at most 5 deep and traces at most 4.
inline constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ValuePtr parse() {
    ValuePtr v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  ValuePtr value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  void enter() {
    if (++depth_ > kMaxDepth) throw std::runtime_error("nesting too deep");
  }

  ValuePtr object() {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kObject;
    expect('{');
    enter();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      ValuePtr key = string_value();
      skip_ws();
      expect(':');
      v->object.emplace_back(key->string, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  ValuePtr array() {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kArray;
    expect('[');
    enter();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      v->array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  ValuePtr string_value() {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kString;
    expect('"');
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v->string.push_back('"'); break;
          case '\\': v->string.push_back('\\'); break;
          case '/': v->string.push_back('/'); break;
          case 'b': v->string.push_back('\b'); break;
          case 'f': v->string.push_back('\f'); break;
          case 'n': v->string.push_back('\n'); break;
          case 'r': v->string.push_back('\r'); break;
          case 't': v->string.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              throw std::runtime_error("truncated \\u escape");
            }
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            for (const char h : hex) {
              if (std::isxdigit(static_cast<unsigned char>(h)) == 0) {
                throw std::runtime_error("bad \\u escape '" + hex + "'");
              }
            }
            const long code = std::strtol(hex.c_str(), nullptr, 16);
            // Validators only need the byte content for comparisons, and
            // the writer emits \u only for ASCII control characters (and
            // U+FFFD for invalid input bytes).
            v->string.push_back(static_cast<char>(code & 0x7F));
            break;
          }
          default: throw std::runtime_error("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        throw std::runtime_error("raw control character in string");
      }
      v->string.push_back(c);
    }
  }

  ValuePtr boolean() {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v->boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v->boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  ValuePtr null() {
    if (text_.compare(pos_, 4, "null") != 0) {
      throw std::runtime_error("bad literal");
    }
    pos_ += 4;
    return std::make_shared<Value>();
  }

  /// RFC 8259: [-] (0 | [1-9][0-9]*) [. [0-9]+] [(e|E) [+|-] [0-9]+].
  ValuePtr number() {
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      return pos_ - from;
    };
    const auto accept = [this](char a, char b) {
      if (pos_ < text_.size() && (text_[pos_] == a || text_[pos_] == b)) {
        ++pos_;
        return true;
      }
      return false;
    };
    (void)accept('-', '-');
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    bool ok = int_digits > 0 && (text_[int_start] != '0' || int_digits == 1);
    if (ok && accept('.', '.')) ok = digits() > 0;
    if (ok && accept('e', 'E')) {
      (void)accept('+', '-');
      ok = digits() > 0;
    }
    if (pos_ == start) throw std::runtime_error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    if (!ok) throw std::runtime_error("bad number '" + token + "'");
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kNumber;
    v->number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v->number)) {
      throw std::runtime_error("number '" + token + "' is not finite");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace minijson
