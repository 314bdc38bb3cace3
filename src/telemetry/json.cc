#include "telemetry/json.h"

#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace cowbird::telemetry {

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  COWBIRD_CHECK(std::isfinite(value));
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  // Trim trailing zeros but keep one digit after the point.
  std::string s(buf);
  while (s.size() > 1 && s.back() == '0' && s[s.size() - 2] != '.') {
    s.pop_back();
  }
  return s;
}

void JsonWriter::Comma() {
  if (!need_comma_.empty()) {
    if (pending_key_) {
      pending_key_ = false;
      return;  // value directly after its key: no comma
    }
    if (need_comma_.back()) out_ += ',';
    need_comma_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Comma();
  out_ += '{';
  need_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  COWBIRD_CHECK(!need_comma_.empty() && !pending_key_);
  need_comma_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  Comma();
  out_ += '[';
  need_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  COWBIRD_CHECK(!need_comma_.empty() && !pending_key_);
  need_comma_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(std::string_view key) {
  COWBIRD_CHECK(!pending_key_);
  Comma();
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  Comma();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
}

void JsonWriter::Uint(std::uint64_t value) {
  Comma();
  out_ += std::to_string(value);
}

void JsonWriter::Int(std::int64_t value) {
  Comma();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  Comma();
  out_ += JsonNumber(value);
}

void JsonWriter::Bool(bool value) {
  Comma();
  out_ += value ? "true" : "false";
}

void JsonWriter::RawNumber(std::string_view formatted) {
  Comma();
  out_ += formatted;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> Run() {
    SkipWs();
    JsonValue value;
    if (!ParseValue(value)) return std::nullopt;
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("trailing characters after document");
      return std::nullopt;
    }
    return value;
  }

 private:
  void Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "offset " + std::to_string(pos_) + ": " + message;
    }
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue& out) {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // The recursion is bounded, so no input can overflow the stack.
        if (depth_ == kMaxJsonDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
          return false;
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"': {
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.string);
      }
      case 't':
      case 'f': return ParseBool(out);
      case 'n': return ParseNull(out);
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(key)) {
        Fail("expected object key");
        return false;
      }
      for (const auto& [k, v] : out.object) {
        (void)v;
        if (k == key) {
          Fail("duplicate key \"" + key + "\"");
          return false;
        }
      }
      SkipWs();
      if (!Consume(':')) {
        Fail("expected ':' after key");
        return false;
      }
      SkipWs();
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      Fail("expected ',' or '}' in object");
      return false;
    }
  }

  bool ParseArray(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      Fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool ParseString(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              Fail("invalid \\u escape");
              return false;
            }
          }
          // The emitters only produce control-range escapes; decode the
          // BMP code point as UTF-8.
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
        default:
          Fail("invalid escape");
          return false;
      }
    }
    Fail("unterminated string");
    return false;
  }

  bool ParseBool(JsonValue& out) {
    out.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    Fail("invalid literal");
    return false;
  }

  bool ParseNull(JsonValue& out) {
    if (text_.substr(pos_, 4) == "null") {
      out.kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    Fail("invalid literal");
    return false;
  }

  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected value");
      return false;
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                             nullptr);
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open around the current value
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text, std::string* error) {
  return Parser(text, error).Run();
}

}  // namespace cowbird::telemetry
