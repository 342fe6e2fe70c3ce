#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/check.hpp"

namespace mlcr::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor::Tensor(std::initializer_list<std::initializer_list<float>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    MLCR_CHECK_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) {
  return Tensor(rows, cols, 0.0F);
}

Tensor Tensor::he_uniform(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  const float limit = std::sqrt(6.0F / static_cast<float>(rows));
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data_[i] = static_cast<float>(rng.uniform(-limit, limit));
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  MLCR_CHECK_MSG(r < rows_ && c < cols_, "index (" << r << "," << c
                                                   << ") out of " << rows_
                                                   << "x" << cols_);
  return (*this)(r, c);
}

float Tensor::at(std::size_t r, std::size_t c) const {
  MLCR_CHECK_MSG(r < rows_ && c < cols_, "index (" << r << "," << c
                                                   << ") out of " << rows_
                                                   << "x" << cols_);
  return (*this)(r, c);
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_(const Tensor& other) {
  MLCR_CHECK(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::axpy_(float alpha, const Tensor& other) {
  MLCR_CHECK(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * other.data_[i];
}

void Tensor::scale_(float alpha) noexcept {
  for (float& v : data_) v *= alpha;
}

void Tensor::add_row_broadcast_(const Tensor& bias) {
  MLCR_CHECK(bias.rows_ == 1 && bias.cols_ == cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    float* out = row(r);
    for (std::size_t c = 0; c < cols_; ++c) out[c] += bias.data_[c];
  }
}

Tensor Tensor::transposed() const {
  Tensor t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

float Tensor::sum() const noexcept {
  float s = 0.0F;
  for (float v : data_) s += v;
  return s;
}

float Tensor::max_abs() const noexcept {
  float m = 0.0F;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

float Tensor::squared_norm() const noexcept {
  float s = 0.0F;
  for (float v : data_) s += v * v;
  return s;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  MLCR_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: "
                                           << a.rows() << "x" << a.cols()
                                           << " . " << b.rows() << "x"
                                           << b.cols());
  Tensor out(a.rows(), b.cols());
  gemm(a.data(), a.cols(), b.data(), b.cols(), nullptr, out.data(),
       out.cols(), a.rows(), a.cols(), b.cols(), /*skip_zero_a=*/true);
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  MLCR_CHECK_MSG(a.rows() == b.rows(), "matmul_tn shape mismatch");
  return matmul(a.transposed(), b);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  MLCR_CHECK_MSG(a.cols() == b.cols(), "matmul_nt shape mismatch");
  const Tensor b_t = b.transposed();
  Tensor out(a.rows(), b.rows());
  gemm(a.data(), a.cols(), b_t.data(), b_t.cols(), nullptr, out.data(),
       out.cols(), a.rows(), a.cols(), b_t.cols(), /*skip_zero_a=*/false);
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor out = logits;
  softmax_rows_(out, out.rows(), out.cols());
  return out;
}

void softmax_rows_(Tensor& t, std::size_t rows, std::size_t distinct) {
  MLCR_CHECK(rows <= t.rows() && distinct <= t.cols());
  MLCR_CHECK(rows == 0 || distinct > 0);
  for (std::size_t r = 0; r < rows; ++r) {
    float* o = t.row(r);
    float max_v = o[0];
    for (std::size_t c = 1; c < distinct; ++c) max_v = std::max(max_v, o[c]);
    float denom = 0.0F;
    for (std::size_t c = 0; c < distinct; ++c) {
      o[c] = std::exp(o[c] - max_v);
      denom += o[c];
    }
    const float repeated = o[distinct - 1];
    for (std::size_t c = distinct; c < t.cols(); ++c) denom += repeated;
    for (std::size_t c = 0; c < distinct; ++c) o[c] /= denom;
    const float repeated_out = repeated / denom;
    for (std::size_t c = distinct; c < t.cols(); ++c) o[c] = repeated_out;
  }
}

Tensor softmax_rows_backward(const Tensor& y, const Tensor& grad_y) {
  MLCR_CHECK(y.same_shape(grad_y));
  Tensor grad_x(y.rows(), y.cols());
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const float* yr = y.row(r);
    const float* gy = grad_y.row(r);
    float* gx = grad_x.row(r);
    float dot = 0.0F;
    for (std::size_t c = 0; c < y.cols(); ++c) dot += yr[c] * gy[c];
    for (std::size_t c = 0; c < y.cols(); ++c)
      gx[c] = yr[c] * (gy[c] - dot);
  }
  return grad_x;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor(" << t.rows() << "x" << t.cols() << ")[";
  for (std::size_t r = 0; r < t.rows(); ++r) {
    os << (r ? "; " : "");
    for (std::size_t c = 0; c < t.cols(); ++c)
      os << (c ? " " : "") << t(r, c);
  }
  return os << "]";
}

}  // namespace mlcr::nn
