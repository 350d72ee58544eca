// Bit-equivalence tests for the SIMD structural scanner (table/csv_scan.h).
//
// The scan body this build runs and the scalar loop must both reproduce a
// naive index bit for bit on every input. The suites drive randomized
// buffers (structure-dense CSV-like text and uniform bytes) across the
// boundary sizes where vector kernels typically go wrong: lengths around
// the 16-byte lane width, the 64-byte word width, and off-by-one tails.

#include "table/csv_scan.h"

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace dq::csvscan {
namespace {

/// Reference implementation, written to be obviously correct rather than
/// fast — an independent check on ScanStructuralScalar itself.
std::vector<uint64_t> NaiveIndex(const std::string& data, char sep) {
  std::vector<uint64_t> words(StructuralWords(data.size()), 0);
  for (size_t i = 0; i < data.size(); ++i) {
    const char c = data[i];
    if (c == sep || c == '"' || c == '\n' || c == '\r') {
      words[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  return words;
}

/// Runs the scalar loop and the build's scan body on `data` and asserts
/// both outputs equal the naive index. Output buffers are pre-poisoned so
/// a kernel that writes too few words fails loudly.
void ExpectAllKernelsAgree(const std::string& data, char sep) {
  const std::vector<uint64_t> expected = NaiveIndex(data, sep);
  const size_t nwords = StructuralWords(data.size());
  ASSERT_EQ(expected.size(), nwords);

  std::vector<uint64_t> got(nwords, ~uint64_t{0});
  ScanStructuralScalar(data.data(), data.size(), sep, got.data());
  EXPECT_EQ(got, expected) << "scalar kernel, n=" << data.size();

  got.assign(nwords, ~uint64_t{0});
  ScanStructural(data.data(), data.size(), sep, got.data());
  EXPECT_EQ(got, expected) << SimdLevel() << " kernel, n=" << data.size();
}

TEST(CsvScanTest, SimdLevelIsKnown) {
#if defined(__SSE2__)
  EXPECT_STREQ(SimdLevel(), "sse2");
#else
  EXPECT_STREQ(SimdLevel(), "scalar");
#endif
}

TEST(CsvScanTest, EmptyInputWritesNoWords) {
  // n = 0 covers zero words; the call must not touch the buffer.
  uint64_t sentinel = 0xdeadbeefdeadbeefULL;
  ScanStructural(nullptr, 0, ',', &sentinel);
  EXPECT_EQ(sentinel, 0xdeadbeefdeadbeefULL);
  EXPECT_EQ(StructuralWords(0), 0u);
}

TEST(CsvScanTest, AllStructuralAndNoStructural) {
  ExpectAllKernelsAgree(std::string(200, ','), ',');
  ExpectAllKernelsAgree(std::string(200, 'x'), ',');
  ExpectAllKernelsAgree(std::string(200, '"'), ',');
  ExpectAllKernelsAgree(std::string(200, '\n'), ',');
}

TEST(CsvScanTest, TailBitsPastLengthAreZero) {
  // A buffer of all-structural bytes with a ragged tail: bits >= n must be
  // zero even though the last word is partially covered.
  for (size_t n : {1, 63, 64, 65, 127, 128, 129}) {
    const std::string data(n, ',');
    std::vector<uint64_t> words(StructuralWords(n), ~uint64_t{0});
    ScanStructural(data.data(), n, ',', words.data());
    for (size_t i = 0; i < words.size() * 64; ++i) {
      const bool bit = (words[i >> 6] >> (i & 63)) & 1;
      EXPECT_EQ(bit, i < n) << "bit " << i << " for n=" << n;
    }
  }
}

TEST(CsvScanTest, BoundarySizesCsvLikeText) {
  // Lane-width edges: 0..72 plus the SIMD block sizes +/- 1.
  std::mt19937_64 rng(2003);
  const char alphabet[] = "ab,\"\n\rXY;09 .";
  std::uniform_int_distribution<size_t> pick(0, sizeof(alphabet) - 2);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 72; ++n) sizes.push_back(n);
  for (size_t n : {127, 128, 129, 255, 256, 257, 1023, 1024, 1025}) {
    sizes.push_back(n);
  }
  for (size_t n : sizes) {
    std::string data(n, '\0');
    for (char& c : data) c = alphabet[pick(rng)];
    ExpectAllKernelsAgree(data, ',');
    ExpectAllKernelsAgree(data, ';');
  }
}

TEST(CsvScanTest, RandomizedUniformBytes) {
  // Uniform bytes (including NUL and high-bit values) catch signedness
  // slips in the byte compares.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> len(0, 4096);
  for (int iter = 0; iter < 50; ++iter) {
    std::string data(len(rng), '\0');
    for (char& c : data) c = static_cast<char>(byte(rng));
    ExpectAllKernelsAgree(data, ',');
  }
}

TEST(CsvScanTest, SeparatorIsRespected) {
  // The separator byte is the only configurable structural; switching it
  // must move exactly those bits.
  const std::string data = "a,b;c,d;e";
  const std::vector<uint64_t> comma = NaiveIndex(data, ',');
  const std::vector<uint64_t> semi = NaiveIndex(data, ';');
  EXPECT_NE(comma, semi);
  ExpectAllKernelsAgree(data, ',');
  ExpectAllKernelsAgree(data, ';');
  ExpectAllKernelsAgree(data, '\t');
  ExpectAllKernelsAgree(data, '|');
}

TEST(CsvScanTest, UnalignedSourcePointers) {
  // Kernels must not assume the source is aligned: scan at every offset
  // into a shared backing buffer.
  std::mt19937_64 rng(11);
  const char alphabet[] = "ab,\"\n\rXY";
  std::uniform_int_distribution<size_t> pick(0, sizeof(alphabet) - 2);
  std::string backing(512, '\0');
  for (char& c : backing) c = alphabet[pick(rng)];
  for (size_t offset = 0; offset < 64; ++offset) {
    const std::string slice = backing.substr(offset, 300);
    ExpectAllKernelsAgree(slice, ',');
  }
}

}  // namespace
}  // namespace dq::csvscan
