// Minimal dense 2-D float tensor with the operations the policy network
// needs. Row-major, value semantics. The DQN processes one token matrix
// (tokens x features) at a time and the matrices are tiny (tens of rows,
// 16-128 columns). At that size a scalar loop is bound by one add chain at
// a time, so matrix products go through one register-blocked kernel (gemm):
// a tile of rows by a SIMD vector of columns stays in accumulators across
// the whole inner loop, compiled per ISA level by GCC target_clones. Its
// summation order is the plain i-k-j loop's, so the result bits do not
// depend on the clone the CPU picks (the library builds with
// -ffp-contract=off, so no clone fuses a multiply into an add).
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
/// row stride lda, b (k x n) with stride ldb, c (m x n) with stride ldc; c
/// must not overlap a or b. Each c(i, j) starts at 0.0F and adds a(i, p) *
/// b(p, j) for p ascending, a separate multiply then add, then the bias.
/// With `skip_zero_a`, terms whose a(i, p) == 0 are skipped (matmul's
/// rule); without it every term is added (a dot product's rule).
void gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          const float* bias, float* c, std::size_t ldc, std::size_t m,
          std::size_t k, std::size_t n, bool skip_zero_a);

/// out = a * b; shapes (m x k) . (k x n) -> (m x n). Through gemm, skipping
/// zero entries of a.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// out = a^T * b; shapes (k x m) . (k x n) -> (m x n).
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// out = a * b^T; shapes (m x k) . (n x k) -> (m x n).
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Row-wise numerically-stable softmax.
[[nodiscard]] Tensor softmax_rows(const Tensor& logits);
/// softmax_rows in place on the first `rows` rows of t, each over all of
/// its columns; the rows are bit-identical to those of softmax_rows(t).
void softmax_rows_(Tensor& t, std::size_t rows);
/// Backward of softmax_rows: given y = softmax(x) and dL/dy, return dL/dx.
[[nodiscard]] Tensor softmax_rows_backward(const Tensor& y,
                                           const Tensor& grad_y);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace mlcr::nn
