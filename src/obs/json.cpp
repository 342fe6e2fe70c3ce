#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mlcr::obs {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  /// Parse one complete JSON document; returns false (with error_) on any
  /// syntax problem, including trailing garbage.
  bool parse(JsonValue& out) {
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after JSON");
    return true;
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  bool fail(const std::string& what) {
    if (error_.empty())
      error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool digit_at(std::size_t i) const {
    return i < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[i])) != 0;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool value(JsonValue& out) {
    if (++depth_ > kMaxDepth) return fail("JSON nested too deeply");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    bool ok = false;
    switch (text_[pos_]) {
      case '{':
        ok = object(out);
        break;
      case '[':
        ok = array(out);
        break;
      case '"':
        out.type = JsonValue::Type::kString;
        ok = string(out.string);
        break;
      case 't':
      case 'f':
        ok = boolean(out);
        break;
      case 'n':
        ok = literal("null");
        out.type = JsonValue::Type::kNull;
        break;
      default:
        ok = number(out);
    }
    --depth_;
    return ok;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool boolean(JsonValue& out) {
    out.type = JsonValue::Type::kBool;
    if (text_[pos_] == 't') {
      out.boolean = true;
      return literal("true");
    }
    out.boolean = false;
    return literal("false");
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  /// The grammar is checked before converting: strtod alone would also take
  /// "inf", "0x1A", "+1", ".5" and "1.".
  bool number(JsonValue& out) {
    std::size_t i = pos_;
    if (i < text_.size() && text_[i] == '-') ++i;
    if (!digit_at(i)) return fail("bad number");
    if (text_[i] == '0') {
      ++i;
      if (digit_at(i)) return fail("bad number (leading zero)");
    } else {
      while (digit_at(i)) ++i;
    }
    if (i < text_.size() && text_[i] == '.') {
      if (!digit_at(++i)) return fail("bad number (no digit after '.')");
      while (digit_at(i)) ++i;
    }
    if (i < text_.size() && (text_[i] == 'e' || text_[i] == 'E')) {
      ++i;
      if (i < text_.size() && (text_[i] == '+' || text_[i] == '-')) ++i;
      if (!digit_at(i)) return fail("bad number (no exponent digits)");
      while (digit_at(i)) ++i;
    }
    out.number = std::strtod(text_.substr(pos_, i - pos_).c_str(), nullptr);
    out.type = JsonValue::Type::kNumber;
    pos_ = i;
    return true;
  }

  bool string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            // Validated but not decoded — strings in this repo are ASCII.
            for (int i = 0; i < 4; ++i, ++pos_)
              if (pos_ >= text_.size() ||
                  std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0)
                return fail("bad \\u escape");
            out += '?';
            break;
          default:
            return fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!consume('{')) return fail("expected object");
    if (consume('}')) return true;
    while (true) {
      std::string key;
      skip_ws();
      if (!string(key)) return false;
      if (!consume(':')) return fail("expected ':' in object");
      JsonValue v;
      if (!value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!consume('[')) return fail("expected array");
    if (consume(']')) return true;
    while (true) {
      JsonValue v;
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  static constexpr int kMaxDepth = 64;
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, std::string& error) {
  Parser parser(text);
  if (parser.parse(out)) return true;
  error = parser.error();
  return false;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
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
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace mlcr::obs
