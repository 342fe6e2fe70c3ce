// Minimal dense 2-D float tensor with the operations the policy network
// needs. Row-major, value semantics. The DQN processes one token matrix
// (tokens x features) at a time and the matrices are tiny (tens of rows,
// 16-128 columns). At that size a scalar loop is bound by one add chain at
// a time, so matrix products go through one register-blocked kernel (gemm):
// a tile of rows by a SIMD vector of columns stays in accumulators across
// the whole inner loop, with one body per ISA level at that level's native
// vector width, picked once at load time. Each output adds every term in
// ascending order from +0, as a plain dot product does, so the result bits
// do not depend on the body the CPU picks (the library builds with
// -ffp-contract=off, so no body fuses a multiply into an add).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "util/rng.hpp"

namespace mlcr::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0F);
  /// 2-D initializer list, e.g. Tensor({{1, 2}, {3, 4}}).
  Tensor(std::initializer_list<std::initializer_list<float>> rows);

  [[nodiscard]] static Tensor zeros(std::size_t rows, std::size_t cols);
  /// He-uniform initialization: U(-limit, limit), limit = sqrt(6 / fan_in).
  [[nodiscard]] static Tensor he_uniform(std::size_t rows, std::size_t cols,
                                         util::Rng& rng);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c);
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;
  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] float* row(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const float* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  void fill(float value) noexcept;
  /// this += other (same shape).
  void add_(const Tensor& other);
  /// this += alpha * other (same shape).
  void axpy_(float alpha, const Tensor& other);
  /// this *= alpha.
  void scale_(float alpha) noexcept;

  [[nodiscard]] Tensor transposed() const;
  /// Sum of all elements.
  [[nodiscard]] float sum() const noexcept;
  /// Largest absolute element (0 for empty tensors).
  [[nodiscard]] float max_abs() const noexcept;
  /// Squared Frobenius norm.
  [[nodiscard]] float squared_norm() const noexcept;

  [[nodiscard]] bool same_shape(const Tensor& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }
  [[nodiscard]] bool operator==(const Tensor& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// The one matrix-product kernel, on row-major strided views: c = a . b,
/// plus `bias` (n floats) on every row unless it is null. a is (m x k) with
/// row stride lda, b (k x n) with stride ldb, c (m x n) with stride ldc. Each
/// c(i, j) starts at +0 and adds every a(i, p) * b(p, j) for p ascending, a
/// separate multiply then add, then the bias; a zero a(i, p) against an inf
/// or NaN b(p, j) makes c(i, j) NaN. The span of c, its first entry to its
/// last, must not overlap a's or b's (checked: a tile reads rows of a, and
/// all of b, after earlier tiles wrote rows of c).
/// Cost: columns past the last full or half vector panel (8 floats on
/// AVX-512, 4 below it) run one at a time, so on AVX-512 any n < 8 is all
/// scalar. A caller with n < 8 whose b and c rows are wider should pad n to
/// 8 and ignore the extra columns.
void gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          const float* bias, float* c, std::size_t ldc, std::size_t m,
          std::size_t k, std::size_t n);

namespace detail {

using GemmFn = void (*)(const float*, std::size_t, const float*, std::size_t,
                        const float*, float*, std::size_t, std::size_t,
                        std::size_t, std::size_t);
struct GemmBody {
  const char* isa;  ///< "avx512f", "avx2" or "baseline"
  GemmFn run;
};
/// The gemm bodies this CPU runs, widest first; gemm is bound to the first.
/// For tests and benches that must reach every body, not only that one.
[[nodiscard]] std::vector<GemmBody> gemm_bodies();

}  // namespace detail

/// out = a * b; shapes (m x k) . (k x n) -> (m x n). Through gemm; a
/// product with a transposed operand passes an explicit .transposed().
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// Row-wise numerically-stable softmax, in place on the first `rows` rows
/// of t, each over all of its columns, where columns [distinct, cols) stand
/// for copies of column distinct - 1. Only the first `distinct` columns are
/// read: the max and the exp run over them, and the others are written with
/// column distinct - 1's result. The denominator still adds all cols()
/// terms in ascending order, so each row is bit-identical to the softmax of
/// the row with the copies in place (distinct = cols()).
void softmax_rows_(Tensor& t, std::size_t rows, std::size_t distinct);
/// Backward of softmax_rows_: given y = softmax(x) and dL/dy, return dL/dx.
[[nodiscard]] Tensor softmax_rows_backward(const Tensor& y,
                                           const Tensor& grad_y);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace mlcr::nn
