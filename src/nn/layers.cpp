#include "nn/layers.hpp"

#include <cmath>

#include "util/check.hpp"

namespace mlcr::nn {

namespace {

void relu_in_place(Tensor& t) {
  for (std::size_t r = 0; r < t.rows(); ++r) {
    float* row = t.row(r);
    for (std::size_t c = 0; c < t.cols(); ++c)
      if (row[c] < 0.0F) row[c] = 0.0F;
  }
}

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

/// layer_norm_rows over every row of `input`, eight rows at a time.
/// `x_hat` (input's shape) and `inv_std` (one per row) may be null.
void layer_norm(const Tensor& input, float epsilon, const Tensor& gain,
                const Tensor& bias, float* x_hat, float* inv_std,
                Tensor& out) {
  const std::size_t dim = input.cols();
  const auto at = [](float* p, std::size_t offset) {
    return p == nullptr ? nullptr : p + offset;
  };
  std::size_t r = 0;
  for (; r + 8 <= input.rows(); r += 8)
    layer_norm_rows<8>(input.row(r), dim, epsilon, gain.data(), bias.data(),
                       at(x_hat, r * dim), at(inv_std, r), out.row(r));
  for (; r < input.rows(); ++r)
    layer_norm_rows<1>(input.row(r), dim, epsilon, gain.data(), bias.data(),
                       at(x_hat, r * dim), at(inv_std, r), out.row(r));
}

}  // namespace

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng, bool bias)
    : weight_("weight", Tensor::he_uniform(in, out, rng)),
      bias_("bias", Tensor::zeros(1, out)),
      has_bias_(bias) {
  MLCR_CHECK(in > 0 && out > 0);
}

Tensor Linear::forward(const Tensor& input) {
  MLCR_CHECK_MSG(input.cols() == in_features(),
                 "Linear expects " << in_features() << " features, got "
                                   << input.cols());
  cached_input_ = input;
  Tensor out = matmul(input, weight_.value);
  if (has_bias_) out.add_row_broadcast_(bias_.value);
  return out;
}

void Linear::infer(const Tensor& input, Tensor& out) const {
  MLCR_CHECK_MSG(input.cols() == in_features(),
                 "Linear expects " << in_features() << " features, got "
                                   << input.cols());
  MLCR_CHECK(out.rows() == input.rows() && out.cols() == out_features());
  gemm(input.data(), input.cols(), weight_.value.data(), out_features(),
       has_bias_ ? bias_.value.data() : nullptr, out.data(), out.cols(),
       input.rows(), in_features(), out_features(), /*skip_zero_a=*/true);
}

Tensor Linear::backward(const Tensor& grad_output) {
  MLCR_CHECK(grad_output.rows() == cached_input_.rows());
  MLCR_CHECK(grad_output.cols() == out_features());
  weight_.grad.add_(matmul_tn(cached_input_, grad_output));
  if (has_bias_) {
    for (std::size_t r = 0; r < grad_output.rows(); ++r)
      for (std::size_t c = 0; c < grad_output.cols(); ++c)
        bias_.grad(0, c) += grad_output(r, c);
  }
  return matmul_nt(grad_output, weight_.value);
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

Tensor LayerNorm::forward(const Tensor& input) {
  const std::size_t dim = gain_.value.cols();
  MLCR_CHECK(input.cols() == dim);
  cached_norm_ = Tensor(input.rows(), dim);
  cached_inv_std_.assign(input.rows(), 0.0F);
  Tensor out(input.rows(), dim);
  layer_norm(input, epsilon_, gain_.value, bias_.value, cached_norm_.data(),
             cached_inv_std_.data(), out);
  return out;
}

void LayerNorm::infer(const Tensor& input, Tensor& out) const {
  const std::size_t dim = gain_.value.cols();
  MLCR_CHECK(input.cols() == dim && out.same_shape(input));
  layer_norm(input, epsilon_, gain_.value, bias_.value, nullptr, nullptr, out);
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

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input;
  relu_in_place(out);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  MLCR_CHECK(grad_output.same_shape(cached_input_));
  Tensor grad_in = grad_output;
  for (std::size_t r = 0; r < grad_in.rows(); ++r) {
    float* g = grad_in.row(r);
    const float* x = cached_input_.row(r);
    for (std::size_t c = 0; c < grad_in.cols(); ++c)
      if (x[c] <= 0.0F) g[c] = 0.0F;
  }
  return grad_in;
}

FeedForward::FeedForward(std::size_t dim, std::size_t hidden, util::Rng& rng)
    : up_(dim, hidden, rng), down_(hidden, dim, rng) {}

Tensor FeedForward::forward(const Tensor& input) {
  return down_.forward(relu_.forward(up_.forward(input)));
}

Tensor FeedForward::backward(const Tensor& grad_output) {
  return up_.backward(relu_.backward(down_.backward(grad_output)));
}

void FeedForward::collect_parameters(std::vector<Parameter*>& out) {
  up_.collect_parameters(out);
  down_.collect_parameters(out);
}

void FeedForward::infer(const Tensor& input, Tensor& hidden,
                        Tensor& out) const {
  up_.infer(input, hidden);
  relu_in_place(hidden);
  down_.infer(hidden, out);
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (const auto& child : children_) x = child->forward(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (const auto& child : children_) child->collect_parameters(out);
}

}  // namespace mlcr::nn
