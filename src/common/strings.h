// Small string/formatting helpers shared across modules.

#ifndef DQ_COMMON_STRINGS_H_
#define DQ_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace dq {

/// \brief Splits `s` on `sep`; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// \brief Joins parts with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// \brief Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// \brief Formats a double with trailing-zero trimming ("1.5", "2", "0.25"):
/// printf's "%.*f" digits at `max_decimals`, with trailing zeros after the
/// point (and a bare point) dropped. Every finite double prints in full,
/// ±DBL_MAX as 309 integer digits.
std::string FormatDouble(double v, int max_decimals = 6);

/// \brief FormatDouble(v, max_decimals) appended to `out`.
void AppendFormattedDouble(std::string* out, double v, int max_decimals = 6);

/// \brief Shortest decimal form that parses back to exactly `v` (CSV cells
/// must survive a write/read round trip bitwise).
std::string FormatDoubleRoundTrip(double v);

/// \brief True if `s` parses fully as a floating point number.
bool ParseDouble(std::string_view s, double* out);

/// \brief True if `s` parses fully as a 64-bit integer.
bool ParseInt64(std::string_view s, int64_t* out);

/// \brief True if `s` parses fully as an unsigned 64-bit integer: digits
/// only, at most 2^64 - 1.
bool ParseUint64(std::string_view s, uint64_t* out);

/// \brief True if `s` parses fully as a byte count: a non-negative integer
/// with an optional binary-multiple suffix K/M/G/T (case-insensitive,
/// optional trailing B), e.g. "65536", "64K", "2g", "1GiB". Rejects
/// negative values, junk and overflow.
bool ParseByteSize(std::string_view s, uint64_t* out);

}  // namespace dq

#endif  // DQ_COMMON_STRINGS_H_
