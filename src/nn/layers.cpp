#include "nn/layers.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"

namespace mlcr::nn {

namespace {

/// LayerNorm of Rows consecutive rows of `dim` features into `out`; also
/// stores x_hat and each row's 1 / std unless `x_hat` / `inv_std` is null.
/// Each row's mean and variance are sequential sums over its columns; the
/// Rows rows run theirs side by side so the add chains overlap.
template <std::size_t Rows>
void layer_norm_rows(const float* x, std::size_t dim, float epsilon,
                     const float* gain, const float* bias, float* x_hat,
                     float* inv_std, float* out) {
  const float n = static_cast<float>(dim);
  float mean[Rows] = {};
  for (std::size_t c = 0; c < dim; ++c)
    for (std::size_t r = 0; r < Rows; ++r) mean[r] += x[r * dim + c];
  for (std::size_t r = 0; r < Rows; ++r) mean[r] /= n;
  float var[Rows] = {};
  for (std::size_t c = 0; c < dim; ++c)
    for (std::size_t r = 0; r < Rows; ++r)
      var[r] += (x[r * dim + c] - mean[r]) * (x[r * dim + c] - mean[r]);
  for (std::size_t r = 0; r < Rows; ++r) {
    var[r] /= n;
    const float is = 1.0F / std::sqrt(var[r] + epsilon);
    if (inv_std != nullptr) inv_std[r] = is;
    for (std::size_t c = 0; c < dim; ++c) {
      const std::size_t at = r * dim + c;
      const float xh = (x[at] - mean[r]) * is;
      if (x_hat != nullptr) x_hat[at] = xh;
      out[at] = xh * gain[c] + bias[c];
    }
  }
}

/// The `rows` rows left over, 1 <= rows <= Rows, in one layer_norm_rows
/// call of exactly that many.
template <std::size_t Rows>
void layer_norm_leftover(std::size_t rows, const float* x, std::size_t dim,
                         float epsilon, const float* gain, const float* bias,
                         float* x_hat, float* inv_std, float* out) {
  if (rows == Rows)
    layer_norm_rows<Rows>(x, dim, epsilon, gain, bias, x_hat, inv_std, out);
  else if constexpr (Rows > 1)
    layer_norm_leftover<Rows - 1>(rows, x, dim, epsilon, gain, bias, x_hat,
                                  inv_std, out);
}

}  // namespace

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng, bool bias)
    : weight_("weight", Tensor::he_uniform(in, out, rng)),
      bias_("bias", Tensor::zeros(1, out)),
      has_bias_(bias) {
  MLCR_CHECK(in > 0 && out > 0);
}

template <class Self>
void Linear::run(Self& self, const Tensor& input, std::size_t rows,
                 Tensor& out) {
  MLCR_CHECK_MSG(input.cols() == self.in_features(),
                 "Linear expects " << self.in_features() << " features, got "
                                   << input.cols());
  MLCR_CHECK(out.rows() == input.rows() &&
             out.cols() == self.out_features() && rows <= input.rows());
  if constexpr (kTraining<Self>) {
    MLCR_CHECK(rows == input.rows());
    self.cached_input_ = input;
  }
  gemm(input.data(), input.cols(), self.weight_.value.data(),
       self.out_features(),
       self.has_bias_ ? self.bias_.value.data() : nullptr, out.data(),
       out.cols(), rows, self.in_features(), self.out_features());
}
template void Linear::run(Linear&, const Tensor&, std::size_t, Tensor&);
template void Linear::run(const Linear&, const Tensor&, std::size_t, Tensor&);

Tensor Linear::forward(const Tensor& input) {
  Tensor out(input.rows(), out_features());
  run(*this, input, input.rows(), out);
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  MLCR_CHECK(grad_output.rows() == cached_input_.rows());
  MLCR_CHECK(grad_output.cols() == out_features());
  weight_.grad.add_(matmul(cached_input_.transposed(), grad_output));
  if (has_bias_) {
    for (std::size_t r = 0; r < grad_output.rows(); ++r)
      for (std::size_t c = 0; c < grad_output.cols(); ++c)
        bias_.grad(0, c) += grad_output(r, c);
  }
  return matmul(grad_output, weight_.value.transposed());
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

LayerNorm::LayerNorm(std::size_t dim, float epsilon)
    : gain_("gain", Tensor(1, dim, 1.0F)),
      bias_("bias", Tensor::zeros(1, dim)),
      epsilon_(epsilon) {
  MLCR_CHECK(dim > 0);
}

template <class Self>
void LayerNorm::run(Self& self, const Tensor& input, std::size_t rows,
                    Tensor& out) {
  const std::size_t dim = self.gain_.value.cols();
  MLCR_CHECK(input.cols() == dim && out.same_shape(input) &&
             rows <= input.rows());
  float* x_hat = nullptr;
  float* inv_std = nullptr;
  if constexpr (kTraining<Self>) {
    MLCR_CHECK(rows == input.rows());
    if (!self.cached_norm_.same_shape(input))
      self.cached_norm_ = Tensor(rows, dim);
    self.cached_inv_std_.resize(rows);
    x_hat = self.cached_norm_.data();
    inv_std = self.cached_inv_std_.data();
  }
  // Eight rows at a time, then the 1-7 left over side by side.
  const float* gain = self.gain_.value.data();
  const float* bias = self.bias_.value.data();
  const auto at = [](float* p, std::size_t offset) {
    return p == nullptr ? nullptr : p + offset;
  };
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8)
    layer_norm_rows<8>(input.row(r), dim, self.epsilon_, gain, bias,
                       at(x_hat, r * dim), at(inv_std, r), out.row(r));
  if (r < rows)
    layer_norm_leftover<7>(rows - r, input.row(r), dim, self.epsilon_, gain,
                           bias, at(x_hat, r * dim), at(inv_std, r),
                           out.row(r));
}
template void LayerNorm::run(LayerNorm&, const Tensor&, std::size_t, Tensor&);
template void LayerNorm::run(const LayerNorm&, const Tensor&, std::size_t,
                             Tensor&);

Tensor LayerNorm::forward(const Tensor& input) {
  Tensor out(input.rows(), input.cols());
  run(*this, input, input.rows(), out);
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_output) {
  MLCR_CHECK(grad_output.same_shape(cached_norm_));
  const std::size_t dim = gain_.value.cols();
  Tensor grad_in(grad_output.rows(), dim);
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    const float* gy = grad_output.row(r);
    const float* xh = cached_norm_.row(r);
    float* gx = grad_in.row(r);
    // dL/dx_hat = gy * gain; grads of gain/bias accumulate.
    float sum_g = 0.0F;
    float sum_gx = 0.0F;
    for (std::size_t c = 0; c < dim; ++c) {
      gain_.grad(0, c) += gy[c] * xh[c];
      bias_.grad(0, c) += gy[c];
      const float g = gy[c] * gain_.value(0, c);
      sum_g += g;
      sum_gx += g * xh[c];
    }
    const float n = static_cast<float>(dim);
    const float inv_std = cached_inv_std_[r];
    for (std::size_t c = 0; c < dim; ++c) {
      const float g = gy[c] * gain_.value(0, c);
      gx[c] = inv_std * (g - sum_g / n - xh[c] * sum_gx / n);
    }
  }
  return grad_in;
}

void LayerNorm::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gain_);
  out.push_back(&bias_);
}

FeedForward::FeedForward(std::size_t dim, std::size_t hidden, util::Rng& rng)
    : up_(dim, hidden, rng), down_(hidden, dim, rng) {}

template <class Self>
void FeedForward::run(Self& self, const Tensor& input, std::size_t rows,
                      Tensor& hidden, Tensor& out) {
  Linear::run(self.up_, input, rows, hidden);
  // ReLU as a bit mask, not a branch: GCC vectorizes it, and even its
  // scalar code has no jump on the data (the post-projection signs are
  // mixed, so a branch mispredicts). An entry below zero becomes +0; -0 and
  // NaN keep their bits (std::max(0.0F, x) would turn a NaN into 0).
  float* h = hidden.data();
  for (std::size_t i = 0; i < rows * hidden.cols(); ++i) {
    const auto keep = -static_cast<std::uint32_t>(!(h[i] < 0.0F));
    h[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(h[i]) & keep);
  }
  Linear::run(self.down_, hidden, rows, out);
}
template void FeedForward::run(FeedForward&, const Tensor&, std::size_t,
                               Tensor&, Tensor&);
template void FeedForward::run(const FeedForward&, const Tensor&, std::size_t,
                               Tensor&, Tensor&);

Tensor FeedForward::forward(const Tensor& input) {
  Tensor hidden(input.rows(), hidden_dim());
  Tensor out(input.rows(), input.cols());
  run(*this, input, input.rows(), hidden, out);
  return out;
}

Tensor FeedForward::backward(const Tensor& grad_output) {
  Tensor grad = down_.backward(grad_output);
  // down_ kept y = relu(x), and y <= 0 exactly when x <= 0 (-0 and NaN
  // included), so y masks the ReLU's gradient as x would.
  const Tensor& y = down_.kept_input();
  for (std::size_t i = 0; i < grad.size(); ++i)
    if (y.data()[i] <= 0.0F) grad.data()[i] = 0.0F;
  return up_.backward(grad);
}

void FeedForward::collect_parameters(std::vector<Parameter*>& out) {
  up_.collect_parameters(out);
  down_.collect_parameters(out);
}

}  // namespace mlcr::nn
