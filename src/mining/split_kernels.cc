#include "mining/split_kernels.h"

namespace dq::kernels {

const char* SimdLevel() { return "scalar"; }

void CountBinClass(const uint8_t* bins, const int32_t* cls, size_t n,
                   size_t nc, uint32_t* out) {
  for (size_t r = 0; r < n; ++r) {
    const uint8_t b = bins[r];
    const int32_t c = cls[r];
    if (b == 0xFF || c < 0) continue;
    ++out[static_cast<size_t>(b) * nc + static_cast<size_t>(c)];
  }
}

void CountCodeClass(const int32_t* codes, const int32_t* cls, size_t n,
                    size_t nc, uint32_t* out) {
  for (size_t r = 0; r < n; ++r) {
    const int32_t b = codes[r];
    const int32_t c = cls[r];
    if (b < 0 || c < 0) continue;
    ++out[static_cast<size_t>(b) * nc + static_cast<size_t>(c)];
  }
}

void CountClasses(const int32_t* cls, size_t n, uint32_t* out) {
  for (size_t r = 0; r < n; ++r) {
    if (cls[r] >= 0) ++out[static_cast<size_t>(cls[r])];
  }
}

}  // namespace dq::kernels
