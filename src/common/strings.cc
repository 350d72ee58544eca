#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dq {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

void AppendFormattedDouble(std::string* out, double v, int max_decimals) {
  // printf treats a negative precision as omitted, which means 6.
  const int decimals = max_decimals < 0 ? 6 : max_decimals;
  // -DBL_MAX in fixed notation is a sign and 309 integer digits, then the
  // point and the decimals. Callers pass at most 6 decimals; the stack
  // buffer holds 17, and a longer request gets a heap buffer of its bound.
  constexpr size_t kIntegerChars =
      2 + std::numeric_limits<double>::max_exponent10;
  const size_t capacity = kIntegerChars + 1 + static_cast<size_t>(decimals);
  char stack[kIntegerChars + 1 + 17];
  std::string heap;
  char* buf = stack;
  if (capacity > sizeof(stack)) {
    heap.resize(capacity);
    buf = heap.data();
  }
  // Defined to print the digits printf("%.*f") prints.
  const char* end =
      std::to_chars(buf, buf + capacity, v, std::chars_format::fixed, decimals)
          .ptr;
  const std::string_view text(buf, static_cast<size_t>(end - buf));
  size_t keep = text.size();
  if (text.find('.') != std::string_view::npos) {
    keep = text.find_last_not_of('0') + 1;
    if (text[keep - 1] == '.') --keep;
  }
  out->append(buf, keep);
}

std::string FormatDouble(double v, int max_decimals) {
  std::string out;
  AppendFormattedDouble(&out, v, max_decimals);
  return out;
}

std::string FormatDoubleRoundTrip(double v) {
#if defined(__cpp_lib_to_chars)
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (res.ec == std::errc()) return std::string(buf, res.ptr);
#endif
  // Fallback: the smallest %g precision whose output parses back exactly.
  char gbuf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(gbuf, sizeof(gbuf), "%.*g", prec, v);
    double back = 0.0;
    if (ParseDouble(gbuf, &back) && back == v) break;
  }
  return gbuf;
}

bool ParseDouble(std::string_view s, double* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  // Fast path: from_chars parses without the NUL-terminated copy strtod
  // needs, and both are correctly rounded, so any input both accept yields
  // the same bits. Inputs only strtod accepts (leading '+', hex floats)
  // fall through to the original path below.
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && ptr == s.data() + s.size()) {
    *out = v;
    return true;
  }
  std::string buf(s);
  char* end = nullptr;
  v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseByteSize(std::string_view s, uint64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  // Strip the optional multiplier suffix: K/M/G/T, optionally followed by
  // "B" or "iB" ("64K", "2g", "512B", "1GiB" all work).
  uint64_t multiplier = 1;
  size_t end = s.size();
  bool saw_i = false;
  if (end >= 2 && (s[end - 1] == 'B' || s[end - 1] == 'b')) {
    --end;
    if (end >= 2 && (s[end - 1] == 'i' || s[end - 1] == 'I')) {
      --end;
      saw_i = true;
    }
  }
  if (end >= 1) {
    switch (s[end - 1]) {
      case 'K': case 'k': multiplier = uint64_t{1} << 10; --end; break;
      case 'M': case 'm': multiplier = uint64_t{1} << 20; --end; break;
      case 'G': case 'g': multiplier = uint64_t{1} << 30; --end; break;
      case 'T': case 't': multiplier = uint64_t{1} << 40; --end; break;
      default: break;
    }
  }
  // "iB" only follows a multiplier letter ("1iB" is not a byte count).
  if (saw_i && multiplier == 1) return false;
  s = s.substr(0, end);
  if (s.empty()) return false;
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  if (multiplier != 1 && v > UINT64_MAX / multiplier) return false;
  *out = v * multiplier;
  return true;
}

}  // namespace dq
