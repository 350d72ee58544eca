#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace dq::obs {

std::string JsonEscape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonObjectWriter::Render(int indent) const {
  if (fields_.empty()) return "{}";
  const std::string pad(indent > 0 ? static_cast<size_t>(indent) : 0, ' ');
  std::string out = indent > 0 ? "{\n" : "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (indent > 0) out += pad;
    out += '"';
    out += JsonEscape(fields_[i].first);
    out += indent > 0 ? "\": " : "\":";
    if (indent > 0) {
      // Re-indent nested pretty-printed values so the result stays readable.
      const std::string& value = fields_[i].second;
      for (char c : value) {
        out.push_back(c);
        if (c == '\n') out += pad;
      }
    } else {
      out += fields_[i].second;
    }
    if (i + 1 < fields_.size()) out += ',';
    if (indent > 0) out += '\n';
  }
  out += '}';
  return out;
}

namespace {

/// Appends `code_point` to `out` as UTF-8.
void AppendUtf8(uint32_t code_point, std::string* out) {
  if (code_point < 0x80) {
    out->push_back(static_cast<char>(code_point));
  } else if (code_point < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else if (code_point < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code_point >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

/// Recursive-descent JSON scanner; validates, and optionally builds a
/// JsonValue DOM when the entry point receives a non-null sink.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  bool Validate(std::string* error) { return Run(nullptr, error); }

  bool Parse(JsonValue* out, std::string* error) { return Run(out, error); }

 private:
  bool Run(JsonValue* out, std::string* error) {
    SkipWs();
    if (!Value(out)) return Fail(error);
    SkipWs();
    if (pos_ != text_.size()) {
      reason_ = "trailing characters after JSON value";
      return Fail(error);
    }
    return true;
  }

  bool Fail(std::string* error) {
    if (error != nullptr) {
      *error = "offset " + std::to_string(pos_) + ": " +
               (reason_.empty() ? "malformed JSON" : reason_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      reason_ = "invalid literal";
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  /// Parses the 4 hex digits after "\u"; `pos_` is on the 'u'.
  bool HexEscape(uint32_t* code_unit) {
    uint32_t value = 0;
    for (int i = 1; i <= 4; ++i) {
      if (pos_ + static_cast<size_t>(i) >= text_.size()) {
        reason_ = "invalid \\u escape";
        return false;
      }
      const char h = text_[pos_ + static_cast<size_t>(i)];
      if (std::isxdigit(static_cast<unsigned char>(h)) == 0) {
        reason_ = "invalid \\u escape";
        return false;
      }
      uint32_t digit = 0;
      if (h >= '0' && h <= '9') {
        digit = static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<uint32_t>(h - 'a') + 10;
      } else {
        digit = static_cast<uint32_t>(h - 'A') + 10;
      }
      value = (value << 4) | digit;
    }
    pos_ += 4;
    *code_unit = value;
    return true;
  }

  bool String(std::string* decoded) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      reason_ = "expected string";
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        reason_ = "unescaped control character in string";
        return false;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_];
        if (esc == 'u') {
          uint32_t unit = 0;
          if (!HexEscape(&unit)) return false;
          // Combine a surrogate pair when a low surrogate follows; an
          // unpaired surrogate decodes to U+FFFD rather than failing (the
          // emitters never produce one, but ledgers are long-lived files).
          if (unit >= 0xD800 && unit <= 0xDBFF &&
              pos_ + 2 < text_.size() && text_[pos_ + 1] == '\\' &&
              text_[pos_ + 2] == 'u') {
            pos_ += 2;
            uint32_t low = 0;
            if (!HexEscape(&low)) return false;
            if (low >= 0xDC00 && low <= 0xDFFF) {
              unit = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            } else {
              if (decoded != nullptr) AppendUtf8(0xFFFD, decoded);
              unit = low >= 0xD800 && low <= 0xDFFF ? 0xFFFD : low;
            }
          } else if (unit >= 0xD800 && unit <= 0xDFFF) {
            unit = 0xFFFD;
          }
          if (decoded != nullptr) AppendUtf8(unit, decoded);
        } else if (esc == '"' || esc == '\\' || esc == '/') {
          if (decoded != nullptr) decoded->push_back(esc);
        } else if (esc == 'b') {
          if (decoded != nullptr) decoded->push_back('\b');
        } else if (esc == 'f') {
          if (decoded != nullptr) decoded->push_back('\f');
        } else if (esc == 'n') {
          if (decoded != nullptr) decoded->push_back('\n');
        } else if (esc == 'r') {
          if (decoded != nullptr) decoded->push_back('\r');
        } else if (esc == 't') {
          if (decoded != nullptr) decoded->push_back('\t');
        } else {
          reason_ = "invalid escape character";
          return false;
        }
        ++pos_;
        continue;
      }
      if (decoded != nullptr) decoded->push_back(c);
      ++pos_;
    }
    reason_ = "unterminated string";
    return false;
  }

  bool Number(std::string* raw) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
      reason_ = "expected digit";
      return false;
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        reason_ = "expected fraction digits";
        return false;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        reason_ = "expected exponent digits";
        return false;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ > start && raw != nullptr) {
      raw->assign(text_.substr(start, pos_ - start));
    }
    return pos_ > start;
  }

  bool Value(JsonValue* out) {
    if (++depth_ > kMaxDepth) {
      reason_ = "nesting too deep";
      return false;
    }
    SkipWs();
    bool ok = false;
    if (pos_ >= text_.size()) {
      reason_ = "unexpected end of input";
    } else {
      switch (text_[pos_]) {
        case '{':
          if (out != nullptr) out->kind = JsonValue::Kind::kObject;
          ok = Object(out);
          break;
        case '[':
          if (out != nullptr) out->kind = JsonValue::Kind::kArray;
          ok = Array(out);
          break;
        case '"':
          if (out != nullptr) out->kind = JsonValue::Kind::kString;
          ok = String(out != nullptr ? &out->string_value : nullptr);
          break;
        case 't':
          ok = Literal("true");
          if (ok && out != nullptr) {
            out->kind = JsonValue::Kind::kBool;
            out->bool_value = true;
          }
          break;
        case 'f':
          ok = Literal("false");
          if (ok && out != nullptr) {
            out->kind = JsonValue::Kind::kBool;
            out->bool_value = false;
          }
          break;
        case 'n':
          ok = Literal("null");
          if (ok && out != nullptr) out->kind = JsonValue::Kind::kNull;
          break;
        default:
          if (out != nullptr) out->kind = JsonValue::Kind::kNumber;
          ok = Number(out != nullptr ? &out->number_raw : nullptr);
      }
    }
    --depth_;
    return ok;
  }

  bool Object(JsonValue* out) {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!String(out != nullptr ? &key : nullptr)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        reason_ = "expected ':' in object";
        return false;
      }
      ++pos_;
      JsonValue* member = nullptr;
      if (out != nullptr) {
        out->members.emplace_back(std::move(key), JsonValue());
        member = &out->members.back().second;
      }
      if (!Value(member)) return false;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      reason_ = "expected ',' or '}' in object";
      return false;
    }
  }

  bool Array(JsonValue* out) {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue* item = nullptr;
      if (out != nullptr) {
        out->items.emplace_back();
        item = &out->items.back();
      }
      if (!Value(item)) return false;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      reason_ = "expected ',' or ']' in array";
      return false;
    }
  }

  static constexpr int kMaxDepth = 64;
  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string reason_;
};

}  // namespace

bool ValidateJson(std::string_view text, std::string* error) {
  return JsonScanner(text).Validate(error);
}

double JsonValue::AsDouble(double fallback) const {
  if (kind != Kind::kNumber) return fallback;
  return std::strtod(number_raw.c_str(), nullptr);
}

int64_t JsonValue::AsInt64(int64_t fallback) const {
  if (kind != Kind::kNumber) return fallback;
  // Fractional/exponent spellings fall back to the double path so "3.0"
  // still reads as 3. A double outside [-2^63, 2^63), or not finite, has
  // no int64 value (converting it is undefined), so it reads as fallback.
  if (number_raw.find_first_of(".eE") != std::string::npos) {
    const double d = AsDouble();
    if (!(d >= -0x1p63 && d < 0x1p63)) return fallback;
    return static_cast<int64_t>(d);
  }
  return static_cast<int64_t>(std::strtoll(number_raw.c_str(), nullptr, 10));
}

uint64_t JsonValue::AsUint64(uint64_t fallback) const {
  if (kind != Kind::kNumber) return fallback;
  if (!number_raw.empty() && number_raw[0] == '-') return fallback;
  if (number_raw.find_first_of(".eE") != std::string::npos) {
    const double d = AsDouble();
    if (!(d >= 0.0 && d < 0x1p64)) return fallback;
    return static_cast<uint64_t>(d);
  }
  return static_cast<uint64_t>(
      std::strtoull(number_raw.c_str(), nullptr, 10));
}

std::string JsonValue::AsString(std::string fallback) const {
  return kind == Kind::kString ? string_value : std::move(fallback);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return JsonScanner(text).Parse(out, error);
}

}  // namespace dq::obs
