// SIMD structural scanner for the streaming CSV tokenizer.
//
// Stage one of the two-stage parser in csv_parser.cc: classify every input
// byte as structural (separator, double quote, LF, CR) or plain content,
// 64 bytes per output word. The record reader then walks only the set bits
// of the resulting index — the per-byte state machine fires at structural
// positions and everything in between is one bulk append — so tokenizer
// cost scales with the density of structure, not with file size.
//
// One body per build, chosen at compile time: SSE2 (the x86-64 baseline,
// no target attribute) where the compiler targets it, the scalar loop
// everywhere else. The scalar loop stays public as the tests' reference;
// a byte either is or is not structural, so both bodies agree bit for bit
// and csv_scan_test checks them against a naive index.

#ifndef DQ_TABLE_CSV_SCAN_H_
#define DQ_TABLE_CSV_SCAN_H_

#include <cstddef>
#include <cstdint>

namespace dq::csvscan {

/// \brief Name of the scan body this build runs: "sse2" or "scalar".
const char* SimdLevel();

/// \brief Number of 64-bit index words covering `n` bytes.
inline size_t StructuralWords(size_t n) { return (n + 63) >> 6; }

/// \brief Builds the structural index of `data[0, n)`: bit i of
/// `words[i / 64]` is set iff data[i] is `sep`, '"', '\n' or '\r'. All
/// StructuralWords(n) words are (re)written; bits at or past n are zero.
void ScanStructural(const char* data, size_t n, char sep, uint64_t* words);

/// \brief The byte-at-a-time loop: same result as ScanStructural.
void ScanStructuralScalar(const char* data, size_t n, char sep,
                          uint64_t* words);

}  // namespace dq::csvscan

#endif  // DQ_TABLE_CSV_SCAN_H_
