// The one matrix-product kernel, declared in tensor.hpp. It has a file of
// its own so a ThreadSanitizer build can leave it uninstrumented (see
// CMakeLists.txt).
//
// One body per ISA level, each built from the same templates with the
// widest vector its registers hold: 16 floats for AVX-512, 8 for AVX2 and 4
// for the x86-64 baseline (SSE2). A panel wider than the registers costs
// more than it saves: GCC splits a 16-float vector into two AVX2 halves so
// poorly that the AVX2 body ran about 3x slower with 16-float panels than
// with 8. An ifunc resolver binds gemm to the widest body the CPU runs, once,
// at load time (GCC 12's C++ function multiversioning would bind callers in
// other files to the default body). Every body sums each c(i, j) in the
// same order, so the result bits do not depend on the body the CPU picks.
//
// Tiles are 4 rows by one panel, then one tile of the 1-7 rows left over.
// With -ffp-contract=off each row is an add chain of its own, so a 1- or
// 2-row tile waits on add latency, and every tile streams all of b.
//
// Skipping a zero a(i, p) only changes c(i, j) when b(p, j) is an inf or
// NaN: then the branch-free term is 0 * inf or 0 * NaN, a NaN, and c(i, j)
// is NaN. Otherwise the term adds +-0 to a sum that is never -0 (it starts
// at +0, and a round-to-nearest sum is -0 only when both addends are), which
// changes nothing. So the branch-free tiles always run first, and the
// zero-skipping ones redo the product only when it asks for the skip and an
// entry of c is not finite (an inf there costs a redundant recompute).
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/tensor.hpp"
#include "util/check.hpp"

namespace mlcr::nn {

namespace {

template <std::size_t W>
struct Lanes {
  typedef float type __attribute__((vector_size(W * sizeof(float))));
};
/// W floats in one vector (an alias template would drop the attribute).
template <std::size_t W>
using Vec = typename Lanes<W>::type;

/// True when every entry of the (m x n) view c is finite.
[[gnu::always_inline]] inline bool all_finite(const float* c, std::size_t ldc,
                                              std::size_t m, std::size_t n) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const float v = c[i * ldc + j];
      bad += v - v == 0.0F ? 0 : 1;  // inf - inf and NaN - NaN are NaN
    }
  return bad == 0;
}

/// True when the spans of two (rows x cols) views, first entry to last,
/// share an address.
bool spans_overlap(const float* x, std::size_t ldx, std::size_t x_rows,
                   std::size_t x_cols, const float* y, std::size_t ldy,
                   std::size_t y_rows, std::size_t y_cols) {
  if (x_rows == 0 || x_cols == 0 || y_rows == 0 || y_cols == 0) return false;
  const auto at = [](const float* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  };
  return at(x) < at(y + (y_rows - 1) * ldy + y_cols) &&
         at(y) < at(x + (x_rows - 1) * ldx + x_cols);
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

/// Rows rows of c, in column panels of W floats, then one of W / 2 (when
/// that is a vector), then single columns.
template <std::size_t Rows, std::size_t W, bool SkipZeros>
[[gnu::always_inline]] inline void gemm_rows(const float* a, std::size_t lda,
                                             const float* b, std::size_t ldb,
                                             const float* bias, float* c,
                                             std::size_t ldc, std::size_t k,
                                             std::size_t n) {
  const auto bias_at = [bias](std::size_t j) {
    return bias == nullptr ? nullptr : bias + j;
  };
  std::size_t j = 0;
  for (; j + W <= n; j += W)
    gemm_tile<Rows, Vec<W>, SkipZeros>(a, lda, b + j, ldb, bias_at(j), c + j,
                                       ldc, k);
  if constexpr (W >= 8) {
    if (j + W / 2 <= n) {
      gemm_tile<Rows, Vec<W / 2>, SkipZeros>(a, lda, b + j, ldb, bias_at(j),
                                             c + j, ldc, k);
      j += W / 2;
    }
  }
  for (; j < n; ++j)
    gemm_tile<Rows, float, SkipZeros>(a, lda, b + j, ldb, bias_at(j), c + j,
                                      ldc, k);
}

/// The `rows` rows of c left over, 1 <= rows <= Rows, in one tile of
/// exactly that many.
template <std::size_t Rows, std::size_t W, bool SkipZeros>
[[gnu::always_inline]] inline void gemm_leftover(
    std::size_t rows, const float* a, std::size_t lda, const float* b,
    std::size_t ldb, const float* bias, float* c, std::size_t ldc,
    std::size_t k, std::size_t n) {
  if (rows == Rows)
    gemm_rows<Rows, W, SkipZeros>(a, lda, b, ldb, bias, c, ldc, k, n);
  else if constexpr (Rows > 1)
    gemm_leftover<Rows - 1, W, SkipZeros>(rows, a, lda, b, ldb, bias, c, ldc, k,
                                          n);
}

/// 4-row tiles while 8 or more rows remain, then one tile of the 1-7 left.
template <std::size_t W, bool SkipZeros>
[[gnu::always_inline]] inline void gemm_blocks(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    const float* bias, float* c, std::size_t ldc, std::size_t m,
    std::size_t k, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 4)
    gemm_rows<4, W, SkipZeros>(a + i * lda, lda, b, ldb, bias, c + i * ldc, ldc,
                               k, n);
  if (i < m)
    gemm_leftover<7, W, SkipZeros>(m - i, a + i * lda, lda, b, ldb, bias,
                                   c + i * ldc, ldc, k, n);
}

template <std::size_t W>
[[gnu::always_inline]] inline void gemm_kernel(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    const float* bias, float* c, std::size_t ldc, std::size_t m,
    std::size_t k, std::size_t n, bool skip_zero_a) {
  MLCR_CHECK(!spans_overlap(c, ldc, m, n, a, lda, m, k) &&
             !spans_overlap(c, ldc, m, n, b, ldb, k, n));
  gemm_blocks<W, false>(a, lda, b, ldb, bias, c, ldc, m, k, n);
  if (skip_zero_a && !all_finite(c, ldc, m, n))
    gemm_blocks<W, true>(a, lda, b, ldb, bias, c, ldc, m, k, n);
}

__attribute__((target("avx512f"))) void gemm_avx512f(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    const float* bias, float* c, std::size_t ldc, std::size_t m,
    std::size_t k, std::size_t n, bool skip_zero_a) {
  gemm_kernel<16>(a, lda, b, ldb, bias, c, ldc, m, k, n, skip_zero_a);
}

__attribute__((target("avx2"))) void gemm_avx2(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    const float* bias, float* c, std::size_t ldc, std::size_t m,
    std::size_t k, std::size_t n, bool skip_zero_a) {
  gemm_kernel<8>(a, lda, b, ldb, bias, c, ldc, m, k, n, skip_zero_a);
}

void gemm_baseline(const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, const float* bias, float* c,
                   std::size_t ldc, std::size_t m, std::size_t k,
                   std::size_t n, bool skip_zero_a) {
  gemm_kernel<4>(a, lda, b, ldb, bias, c, ldc, m, k, n, skip_zero_a);
}

}  // namespace

namespace detail {

std::vector<GemmBody> gemm_bodies() {
  __builtin_cpu_init();
  std::vector<GemmBody> out;
  if (__builtin_cpu_supports("avx512f"))
    out.push_back({"avx512f", gemm_avx512f});
  if (__builtin_cpu_supports("avx2")) out.push_back({"avx2", gemm_avx2});
  out.push_back({"baseline", gemm_baseline});
  return out;
}

}  // namespace detail

// The resolver runs while the dynamic loader relocates the program, before
// any constructor, so it calls nothing outside this file but the builtins.
extern "C" {
static detail::GemmFn mlcr_resolve_gemm() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return gemm_avx512f;
  if (__builtin_cpu_supports("avx2")) return gemm_avx2;
  return gemm_baseline;
}
}

__attribute__((ifunc("mlcr_resolve_gemm"))) void gemm(
    const float* a, std::size_t lda, const float* b, std::size_t ldb,
    const float* bias, float* c, std::size_t ldc, std::size_t m,
    std::size_t k, std::size_t n, bool skip_zero_a);

}  // namespace mlcr::nn
