// The one matrix-product kernel, declared in tensor.hpp. It has a file of
// its own so a ThreadSanitizer build can leave it uninstrumented (see
// CMakeLists.txt).
#include <cstring>

#include "nn/tensor.hpp"

namespace mlcr::nn {

namespace {

using Vec16 = float __attribute__((vector_size(16 * sizeof(float))));
using Vec8 = float __attribute__((vector_size(8 * sizeof(float))));

/// True when every entry of the (k x n) view b is finite.
[[gnu::always_inline]] inline bool all_finite(const float* b, std::size_t ldb,
                                              std::size_t k, std::size_t n) {
  std::size_t bad = 0;
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) {
      const float v = b[p * ldb + j];
      bad += v - v == 0.0F ? 0 : 1;  // inf - inf and NaN - NaN are NaN
    }
  return bad == 0;
}

/// One tile of Rows rows by one vector V of columns (V = float: one
/// column). The Rows x V accumulators stay in registers over the whole k
/// loop, Rows independent add chains per column, and each b vector loaded
/// serves every row.
template <std::size_t Rows, typename V, bool SkipZeros>
[[gnu::always_inline]] inline void gemm_tile(const float* a, std::size_t lda,
                                             const float* b, std::size_t ldb,
                                             const float* bias, float* c,
                                             std::size_t ldc, std::size_t k) {
  V acc[Rows] = {};
  for (std::size_t p = 0; p < k; ++p) {
    V bv;
    std::memcpy(&bv, b + p * ldb, sizeof(V));
    for (std::size_t r = 0; r < Rows; ++r) {
      const float arp = a[r * lda + p];
      if (SkipZeros && arp == 0.0F) continue;
      acc[r] += arp * bv;
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    if (bias != nullptr) {
      V bv;
      std::memcpy(&bv, bias, sizeof(V));
      acc[r] += bv;
    }
    std::memcpy(c + r * ldc, &acc[r], sizeof(V));
  }
}

/// Rows rows of c, in column panels of 16, then 8, then single columns.
template <std::size_t Rows, bool SkipZeros>
[[gnu::always_inline]] inline void gemm_rows(const float* a, std::size_t lda,
                                             const float* b, std::size_t ldb,
                                             const float* bias, float* c,
                                             std::size_t ldc, std::size_t k,
                                             std::size_t n) {
  const auto bias_at = [bias](std::size_t j) {
    return bias == nullptr ? nullptr : bias + j;
  };
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16)
    gemm_tile<Rows, Vec16, SkipZeros>(a, lda, b + j, ldb, bias_at(j), c + j,
                                      ldc, k);
  for (; j + 8 <= n; j += 8)
    gemm_tile<Rows, Vec8, SkipZeros>(a, lda, b + j, ldb, bias_at(j), c + j,
                                     ldc, k);
  for (; j < n; ++j)
    gemm_tile<Rows, float, SkipZeros>(a, lda, b + j, ldb, bias_at(j), c + j,
                                      ldc, k);
}

template <bool SkipZeros>
[[gnu::always_inline]] inline void gemm_blocks(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    const float* bias, float* c, std::size_t ldc, std::size_t m,
    std::size_t k, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4)
    gemm_rows<4, SkipZeros>(a + i * lda, lda, b, ldb, bias, c + i * ldc, ldc,
                            k, n);
  for (; i + 2 <= m; i += 2)
    gemm_rows<2, SkipZeros>(a + i * lda, lda, b, ldb, bias, c + i * ldc, ldc,
                            k, n);
  for (; i < m; ++i)
    gemm_rows<1, SkipZeros>(a + i * lda, lda, b, ldb, bias, c + i * ldc, ldc,
                            k, n);
}

}  // namespace

// Tiles of 4 (then 2, 1) rows by 16 / 8 / 1 columns. Skipping a zero
// a(i, p) only changes the bits when b(p, j) is an inf or NaN: otherwise the
// term adds +-0 to a sum that is never -0 (it starts at +0, and a
// round-to-nearest sum is -0 only when both addends are). So the
// branch-free tiles run unless the zero-skip is asked for and b holds a
// non-finite entry.
__attribute__((target_clones("avx512f", "avx2", "default"))) void gemm(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    const float* bias, float* c, std::size_t ldc, std::size_t m,
    std::size_t k, std::size_t n, bool skip_zero_a) {
  if (skip_zero_a && !all_finite(b, ldb, k, n))
    gemm_blocks<true>(a, lda, b, ldb, bias, c, ldc, m, k, n);
  else
    gemm_blocks<false>(a, lda, b, ldb, bias, c, ldc, m, k, n);
}

}  // namespace mlcr::nn
