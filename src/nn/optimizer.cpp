#include "nn/optimizer.hpp"

#include <cmath>

#include "util/check.hpp"

namespace mlcr::nn {

namespace {

constexpr float kBeta1 = 0.9F;
constexpr float kBeta2 = 0.999F;
constexpr float kEpsilon = 1e-8F;

}  // namespace

Adam::Adam(std::vector<Parameter*> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  MLCR_CHECK(lr_ > 0.0F);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
  }
}

float Adam::clip_grad_norm(float max_norm) {
  MLCR_CHECK(max_norm > 0.0F);
  float total = 0.0F;
  for (Parameter* p : params_) total += p->grad.squared_norm();
  const float norm = std::sqrt(total);
  if (norm <= max_norm || norm == 0.0F) return norm;
  const float scale = max_norm / norm;
  for (Parameter* p : params_) p->grad.scale_(scale);
  return norm;
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0F - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(kBeta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    float* m = m_[i].data();
    float* v = v_[i].data();
    float* w = p.value.data();
    const float* g = p.grad.data();
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      m[j] = kBeta1 * m[j] + (1.0F - kBeta1) * g[j];
      v[j] = kBeta2 * v[j] + (1.0F - kBeta2) * g[j] * g[j];
      const float m_hat = m[j] / bc1;
      const float v_hat = v[j] / bc2;
      w[j] -= lr_ * m_hat / (std::sqrt(v_hat) + kEpsilon);
    }
    p.grad.fill(0.0F);
  }
}

}  // namespace mlcr::nn
