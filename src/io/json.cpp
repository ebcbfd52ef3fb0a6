#include "io/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace rumor::io {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw util::IoError("json: " + what + " at byte " + std::to_string(pos));
}

/// Recursive-descent parser over a bounded string view. Depth is capped
/// so a hostile request ("[[[[[...") cannot overflow the daemon's stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    skip_ws();
    JsonValue value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail(pos_, "invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue object = JsonValue::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail(pos_, "expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      object.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return object;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonValue array = JsonValue::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      skip_ws();
      array.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return array;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail(pos_ - 1, "invalid escape");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail(pos_ - 1, "invalid \\u escape digit");
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    std::uint32_t code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: require the paired low surrogate.
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail(pos_, "unpaired surrogate");
      }
      pos_ += 2;
      const std::uint32_t low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail(pos_, "unpaired surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail(pos_, "unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      fail(pos_, "invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        fail(pos_, "invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        fail(pos_, "invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) fail(start, "number out of range");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(double value, std::string& out) {
  // Integers (the common case: ids, counts, ports) print without an
  // exponent or trailing zeros; everything else uses %.17g which
  // round-trips any double.
  if (std::nearbyint(value) == value && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

[[noreturn]] void kind_error(const char* wanted) {
  throw util::IoError(std::string("json: value is not ") + wanted);
}

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).document();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* value = find(key);
  return value == nullptr ? fallback : value->as_number();
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* value = find(key);
  return value == nullptr ? std::string(fallback) : value->as_string();
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* value = find(key);
  return value == nullptr ? fallback : value->as_bool();
}

std::uint64_t JsonValue::u64_or(std::string_view key,
                                std::uint64_t fallback) const {
  const JsonValue* value = find(key);
  if (value == nullptr) return fallback;
  const double n = value->as_number();
  // Values from 2^64 up do not fit: casting them is undefined behaviour.
  if (!(n >= 0.0 && n < 18446744073709551616.0) || std::nearbyint(n) != n) {
    throw util::IoError("json: field '" + std::string(key) +
                        "' is not an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(n);
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::kObject) kind_error("an object");
  for (Member& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::push_back(JsonValue value) {
  if (kind_ != Kind::kArray) kind_error("an array");
  array_.push_back(std::move(value));
  return *this;
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      dump_number(number_, out);
      return;
    case Kind::kString:
      dump_string(string_, out);
      return;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out.push_back(',');
        array_[i].dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out.push_back(',');
        dump_string(object_[i].first, out);
        out.push_back(':');
        object_[i].second.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace rumor::io
