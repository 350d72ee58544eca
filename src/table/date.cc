#include "table/date.h"

#include <cstdio>
#include <limits>

#include "common/strings.h"

namespace dq {

namespace {

/// DaysFromCivil in int64 (Howard Hinnant's algorithm): exact for every
/// int32 year, where the day count itself may not fit in int32.
int64_t DaysFromCivil64(const CivilDate& d) {
  const int64_t m = d.month;
  const int64_t y = int64_t{d.year} - (m <= 2);
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;                                     // [0, 399]
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d.day - 1;  // [0, 365]
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;             // [0, 146096]
  return era * 146097 + doe - 719468;
}

}  // namespace

int32_t DaysFromCivil(const CivilDate& d) {
  return static_cast<int32_t>(DaysFromCivil64(d));
}

CivilDate CivilFromDays(int32_t days) {
  // int64 throughout: days + 719468 overflows int32 near INT32_MAX.
  const int64_t z = int64_t{days} + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;                                  // [0, 146096]
  const int64_t yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;             // [0, 399]
  const int64_t y = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
  const int64_t mp = (5 * doy + 2) / 153;                                // [0, 11]
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;                        // [1, 31]
  const int64_t m = mp + (mp < 10 ? 3 : -9);                             // [1, 12]
  CivilDate out;
  out.year = static_cast<int32_t>(y + (m <= 2));
  out.month = static_cast<int32_t>(m);
  out.day = static_cast<int32_t>(d);
  return out;
}

bool IsValidCivil(const CivilDate& d) {
  if (d.month < 1 || d.month > 12 || d.day < 1) return false;
  static const int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  int max_day = kDays[d.month - 1];
  const bool leap =
      (d.year % 4 == 0 && d.year % 100 != 0) || d.year % 400 == 0;
  if (d.month == 2 && leap) max_day = 29;
  return d.day <= max_day;
}

std::string FormatDate(int32_t days) {
  CivilDate c = CivilFromDays(days);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

Result<int32_t> ParseDate(std::string_view text) {
  // Split on '-' without materializing the parts: this runs once per date
  // cell on the ingest hot path. Exactly two separators, same as a
  // three-way SplitString, after the sign of a year before 0000 (FormatDate
  // writes -001-12-31 for the day before 0000-01-01).
  const size_t p1 = text.find('-', text.starts_with('-') ? 1 : 0);
  const size_t p2 =
      p1 == std::string_view::npos ? p1 : text.find('-', p1 + 1);
  if (p1 == std::string_view::npos || p2 == std::string_view::npos ||
      text.find('-', p2 + 1) != std::string_view::npos) {
    return Status::InvalidArgument("expected YYYY-MM-DD, got '" +
                                   std::string(text) + "'");
  }
  int64_t y = 0, m = 0, d = 0;
  if (!ParseInt64(text.substr(0, p1), &y) ||
      !ParseInt64(text.substr(p1 + 1, p2 - p1 - 1), &m) ||
      !ParseInt64(text.substr(p2 + 1), &d)) {
    return Status::InvalidArgument("non-numeric date component in '" +
                                   std::string(text) + "'");
  }
  // Every component and the day count must fit in int32: narrowing first
  // would wrap 4294969299-06-01 onto 2003-06-01.
  const auto fits = [](int64_t v) {
    return v >= std::numeric_limits<int32_t>::min() &&
           v <= std::numeric_limits<int32_t>::max();
  };
  const auto invalid = [&] {
    return Status::InvalidArgument("invalid calendar date '" +
                                   std::string(text) + "'");
  };
  if (!fits(y) || !fits(m) || !fits(d)) return invalid();
  const CivilDate c{static_cast<int32_t>(y), static_cast<int32_t>(m),
                    static_cast<int32_t>(d)};
  if (!IsValidCivil(c)) return invalid();
  const int64_t days = DaysFromCivil64(c);
  if (!fits(days)) {
    return Status::InvalidArgument("date '" + std::string(text) +
                                   "' is out of range");
  }
  return static_cast<int32_t>(days);
}

}  // namespace dq
