#include "serve/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace naas::serve {
namespace {

/// Parse depth cap: protocol objects nest 3-4 levels; 64 leaves headroom
/// while keeping a hostile deeply-nested line from exhausting the stack.
constexpr int kMaxDepth = 64;

const Json& null_sentinel() {
  static const Json v;
  return v;
}

const std::string& empty_string() {
  static const std::string s;
  return s;
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& message) {
    if (error.empty())
      error = message + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(const char* word, std::size_t len) {
    if (text.compare(pos, len, word) != 0)
      return fail(std::string("invalid literal"));
    pos += len;
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
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

  bool hex4(unsigned& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (true) {
      if (pos >= text.size()) return fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) return fail("unterminated escape");
      c = text[pos++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!hex4(code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must pair with \uDC00..\uDFFF.
            if (pos + 2 <= text.size() && text[pos] == '\\' &&
                text[pos + 1] == 'u') {
              pos += 2;
              unsigned low = 0;
              if (!hex4(low)) return false;
              if (low < 0xDC00 || low > 0xDFFF)
                return fail("invalid low surrogate");
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return fail("unpaired surrogate");
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
  }

  std::size_t take_digits() {
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos - start;
  }

  bool parse_number(Json& out) {
    // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? —
    // leading zeros, bare '-', and dangling '.'/'e' are rejected even
    // though strtod would happily read them.
    const std::size_t start = pos;
    if (consume('-')) {}
    const std::size_t int_start = pos;
    const std::size_t int_digits = take_digits();
    if (int_digits == 0) return fail("invalid number");
    if (int_digits > 1 && text[int_start] == '0')
      return fail("invalid number (leading zero)");
    bool integral = true;
    if (consume('.')) {
      integral = false;
      if (take_digits() == 0) return fail("invalid number");
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      integral = false;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (take_digits() == 0) return fail("invalid number");
    }
    const std::string token = text.substr(start, pos - start);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') {
        out = Json::integer(v);
        return true;
      }
      // Out of i64 range: fall through to double.
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0') return fail("invalid number");
    out = Json::number(v);
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == 'n') {
      if (!literal("null", 4)) return false;
      out = Json::null();
      return true;
    }
    if (c == 't') {
      if (!literal("true", 4)) return false;
      out = Json::boolean(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false", 5)) return false;
      out = Json::boolean(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Json::string(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos;
      out = Json::array();
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Json elem;
        if (!parse_value(elem, depth + 1)) return false;
        out.push(std::move(elem));
        skip_ws();
        if (consume(']')) return true;
        if (!consume(',')) return fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++pos;
      out = Json::object();
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        Json value;
        if (!parse_value(value, depth + 1)) return false;
        out.set(key, std::move(value));
        skip_ws();
        if (consume('}')) return true;
        if (!consume(',')) return fail("expected ',' or '}'");
      }
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }
};

void escape_to(const std::string& s, std::string& out) {
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

}  // namespace

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  // The shortest of %.15g, %.16g and %.17g that reads back to the exact
  // bit pattern: deterministic text for deterministic values. 15 digits
  // suffice for values that are short decimals to begin with; 17 always
  // round-trip. to_chars with a precision is specified as printf("%.*g")
  // in the C locale and from_chars rounds correctly like strtod, so this
  // writes the snprintf/strtod probe's text several times faster (an
  // evaluate_network response carries about 75 numbers). Choosing the
  // precision from the shortest to_chars output would change the text.
  char buf[32];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return std::string(buf, end);
}

Json Json::null() { return Json(); }

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kDouble;
  j.num_ = v;
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.type_ = Type::kInt;
  j.int_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::raw(std::string text) {
  Json j;
  j.type_ = Type::kRaw;
  j.str_ = std::move(text);
  return j;
}

bool Json::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double Json::as_double(double fallback) const {
  if (type_ == Type::kDouble) return num_;
  if (type_ == Type::kInt) return static_cast<double>(int_);
  if (type_ == Type::kNull) return std::numeric_limits<double>::quiet_NaN();
  return fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kDouble) return static_cast<std::int64_t>(num_);
  return fallback;
}

const std::string& Json::as_string() const {
  return type_ == Type::kString ? str_ : empty_string();
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return elems_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray || i >= elems_.size()) return null_sentinel();
  return elems_[i];
}

Json& Json::push(Json v) {
  elems_.push_back(std::move(v));
  return elems_.back();
}

const Json* Json::get(const std::string& key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

Json& Json::set(const std::string& key, Json v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  members_.emplace_back(key, std::move(v));
  return members_.back().second;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kInt:
      out += std::to_string(int_);
      return;
    case Type::kDouble:
      out += format_double(num_);
      return;
    case Type::kString:
      escape_to(str_, out);
      return;
    case Type::kRaw:
      out += str_;
      return;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < elems_.size(); ++i) {
        if (i) out.push_back(',');
        elems_[i].dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out.push_back(',');
        escape_to(members_[i].first, out);
        out.push_back(':');
        members_[i].second.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

Json Json::parse(const std::string& text, std::string* error) {
  Parser p{text, 0, {}};
  Json out;
  if (!p.parse_value(out, 0)) {
    if (error) *error = p.error;
    return Json();
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    p.fail("trailing characters after value");
    if (error) *error = p.error;
    return Json();
  }
  if (error) error->clear();
  return out;
}

}  // namespace naas::serve
