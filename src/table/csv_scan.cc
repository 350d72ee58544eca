#include "table/csv_scan.h"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace dq::csvscan {

namespace {

/// Sets the index bit of every structural byte in data[begin, n).
void MarkStructural(const char* data, size_t begin, size_t n, char sep,
                    uint64_t* words) {
  for (size_t i = begin; i < n; ++i) {
    const char c = data[i];
    if (c == sep || c == '"' || c == '\n' || c == '\r') {
      words[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

}  // namespace

void ScanStructuralScalar(const char* data, size_t n, char sep,
                          uint64_t* words) {
  std::fill(words, words + StructuralWords(n), uint64_t{0});
  MarkStructural(data, 0, n, sep, words);
}

#if defined(__SSE2__)

const char* SimdLevel() { return "sse2"; }

// Four byte-compares per 16-byte lane, OR'd and movemask'd into 16 index
// bits; four lanes fill one 64-bit word.
void ScanStructural(const char* data, size_t n, char sep, uint64_t* words) {
  std::fill(words, words + StructuralWords(n), uint64_t{0});
  const __m128i vsep = _mm_set1_epi8(sep);
  const __m128i vquote = _mm_set1_epi8('"');
  const __m128i vlf = _mm_set1_epi8('\n');
  const __m128i vcr = _mm_set1_epi8('\r');
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i hit = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(v, vsep), _mm_cmpeq_epi8(v, vquote)),
        _mm_or_si128(_mm_cmpeq_epi8(v, vlf), _mm_cmpeq_epi8(v, vcr)));
    const auto bits =
        static_cast<uint64_t>(static_cast<uint32_t>(_mm_movemask_epi8(hit)));
    words[i >> 6] |= bits << (i & 63);
  }
  MarkStructural(data, i, n, sep, words);
}

#else

const char* SimdLevel() { return "scalar"; }

void ScanStructural(const char* data, size_t n, char sep, uint64_t* words) {
  ScanStructuralScalar(data, n, sep, words);
}

#endif  // __SSE2__

}  // namespace dq::csvscan
