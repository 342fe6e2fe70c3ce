// QNetwork's forward pass as it ran before the layers shared one body with
// infer: every layer on whole, freshly allocated tensors, attention one head
// at a time through column copies, matmul on the transposed keys, a softmax
// and matmul, each head's output added into zeros. It reads the network's
// parameters and nothing else of it, so it is an independent reference for
// both QNetwork::forward and QNetwork::infer, bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/tensor.hpp"
#include "rl/qnetwork.hpp"

namespace mlcr::rl::reference {

class Forward {
 public:
  explicit Forward(QNetwork& net)
      : config_(net.config()), params_(net.parameters()) {}

  /// Q-values ((num_slots + 1) x 1) of `tokens`.
  [[nodiscard]] nn::Tensor operator()(const nn::Tensor& tokens) {
    next_ = 0;
    nn::Tensor h = linear(tokens);
    for (std::size_t b = 0; b < config_.blocks; ++b) {
      if (config_.use_attention) {
        nn::Tensor x = h;
        x.add_(attention(layer_norm(h)));
        h = x;
        h.add_(feed_forward(layer_norm(x)));
      } else {
        h = feed_forward(h);
      }
    }
    const nn::Tensor values = linear(layer_norm(h));
    nn::Tensor q(config_.num_slots + 1, 1);
    for (std::size_t slot = 0; slot < config_.num_slots; ++slot)
      q(slot, 0) = values(kFirstSlotTokenRow + slot, 0);
    q(config_.num_slots, 0) = values(kFunctionTokenRow, 0);
    return q;
  }

 private:
  const nn::Tensor& next() { return params_.at(next_++)->value; }

  nn::Tensor linear(const nn::Tensor& x) {
    nn::Tensor y = nn::matmul(x, next());
    const nn::Tensor& bias = next();
    for (std::size_t r = 0; r < y.rows(); ++r)
      for (std::size_t c = 0; c < y.cols(); ++c) y(r, c) += bias(0, c);
    return y;
  }

  nn::Tensor layer_norm(const nn::Tensor& x) {
    const nn::Tensor& gain = next();
    const nn::Tensor& bias = next();
    const float n = static_cast<float>(x.cols());
    nn::Tensor y(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      float mean = 0.0F;
      for (std::size_t c = 0; c < x.cols(); ++c) mean += x(r, c);
      mean /= n;
      float var = 0.0F;
      for (std::size_t c = 0; c < x.cols(); ++c)
        var += (x(r, c) - mean) * (x(r, c) - mean);
      var /= n;
      const float inv_std = 1.0F / std::sqrt(var + 1e-5F);
      for (std::size_t c = 0; c < x.cols(); ++c)
        y(r, c) = (x(r, c) - mean) * inv_std * gain(0, c) + bias(0, c);
    }
    return y;
  }

  nn::Tensor feed_forward(const nn::Tensor& x) {
    nn::Tensor hidden = linear(x);
    for (std::size_t i = 0; i < hidden.size(); ++i)
      if (hidden.data()[i] < 0.0F) hidden.data()[i] = 0.0F;
    return linear(hidden);
  }

  static nn::Tensor col_block(const nn::Tensor& src, std::size_t from,
                              std::size_t width) {
    nn::Tensor out(src.rows(), width);
    for (std::size_t r = 0; r < src.rows(); ++r)
      for (std::size_t c = 0; c < width; ++c) out(r, c) = src(r, from + c);
    return out;
  }

  /// Row-wise softmax over every column.
  static void softmax(nn::Tensor& t) {
    for (std::size_t r = 0; r < t.rows(); ++r) {
      float max_v = t(r, 0);
      for (std::size_t c = 1; c < t.cols(); ++c)
        max_v = std::max(max_v, t(r, c));
      float denom = 0.0F;
      for (std::size_t c = 0; c < t.cols(); ++c) {
        t(r, c) = std::exp(t(r, c) - max_v);
        denom += t(r, c);
      }
      for (std::size_t c = 0; c < t.cols(); ++c) t(r, c) /= denom;
    }
  }

  nn::Tensor attention(const nn::Tensor& x) {
    const nn::Tensor q = linear(x);
    const nn::Tensor k = linear(x);
    const nn::Tensor v = linear(x);
    const std::size_t dim = x.cols();
    const std::size_t head_dim = dim / config_.heads;
    const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim));
    nn::Tensor concat(x.rows(), dim);
    for (std::size_t h = 0; h < config_.heads; ++h) {
      const std::size_t from = h * head_dim;
      nn::Tensor scores =
          nn::matmul(col_block(q, from, head_dim),
                     col_block(k, from, head_dim).transposed());
      scores.scale_(scale);
      softmax(scores);
      const nn::Tensor out =
          nn::matmul(scores, col_block(v, from, head_dim));
      for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = 0; c < head_dim; ++c)
          concat(r, from + c) += out(r, c);
    }
    return linear(concat);
  }

  QNetworkConfig config_;
  std::vector<nn::Parameter*> params_;
  std::size_t next_ = 0;
};

}  // namespace mlcr::rl::reference
