// Minimal dense 2-D float tensor with the operations the policy network
// needs. Row-major, value semantics. The DQN processes one token matrix
// (tokens x features) at a time and the matrices are tiny (tens of rows,
// 16-128 columns). At that size a scalar loop is bound by one add chain at
// a time, so matrix products go through one register-blocked kernel (gemm):
// a tile of rows by a SIMD vector of columns stays in accumulators across
// the whole inner loop, with one body per ISA level at that level's native
// vector width, picked once at load time. Its summation order is the plain
// i-k-j loop's, so the result bits do not depend on the body the CPU picks
// (the library builds with -ffp-contract=off, so no body fuses a multiply
// into an add).
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
  /// Adds `bias` (1 x cols) to every row.
  void add_row_broadcast_(const Tensor& bias);

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
/// row stride lda, b (k x n) with stride ldb, c (m x n) with stride ldc. The
/// span of c, its first entry to its last, must not overlap a's or b's
/// (checked: the kernel may write c twice). Each c(i, j) starts at 0.0F and
/// adds a(i, p) * b(p, j) for p ascending, a separate multiply then add,
/// then the bias. With `skip_zero_a`, terms whose a(i, p) == 0 are skipped
/// (matmul's rule); without it every term is added (a dot product's rule).
void gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          const float* bias, float* c, std::size_t ldc, std::size_t m,
          std::size_t k, std::size_t n, bool skip_zero_a);

namespace detail {

using GemmFn = void (*)(const float*, std::size_t, const float*, std::size_t,
                        const float*, float*, std::size_t, std::size_t,
                        std::size_t, std::size_t, bool);
struct GemmBody {
  const char* isa;  ///< "avx512f", "avx2" or "baseline"
  GemmFn run;
};
/// The gemm bodies this CPU runs, widest first; gemm is bound to the first.
/// For tests and benches that must reach every body, not only that one.
[[nodiscard]] std::vector<GemmBody> gemm_bodies();

}  // namespace detail

/// out = a * b; shapes (m x k) . (k x n) -> (m x n). Through gemm, skipping
/// zero entries of a.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// out = a^T * b; shapes (k x m) . (k x n) -> (m x n). gemm on a's
/// transpose, skipping zero entries of a.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// out = a * b^T; shapes (m x k) . (n x k) -> (m x n). gemm on b's
/// transpose, adding every term (a dot product per entry).
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Row-wise numerically-stable softmax.
[[nodiscard]] Tensor softmax_rows(const Tensor& logits);
/// softmax_rows in place on the first `rows` rows of t, each over all of
/// its columns, where columns [distinct, cols) stand for copies of column
/// distinct - 1. Only the first `distinct` columns are read: the max and
/// the exp run over them, and the others are written with column
/// distinct - 1's result. The denominator still adds all cols() terms in
/// ascending order, so each row is bit-identical to softmax_rows of the row
/// with the copies in place. softmax_rows passes distinct = cols().
void softmax_rows_(Tensor& t, std::size_t rows, std::size_t distinct);
/// Backward of softmax_rows: given y = softmax(x) and dL/dy, return dL/dx.
[[nodiscard]] Tensor softmax_rows_backward(const Tensor& y,
                                           const Tensor& grad_y);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace mlcr::nn
