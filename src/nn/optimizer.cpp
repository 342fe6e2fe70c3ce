#include "nn/optimizer.hpp"

#include <cmath>

#include "util/check.hpp"

namespace mlcr::nn {

float Optimizer::clip_grad_norm(float max_norm) {
  MLCR_CHECK(max_norm > 0.0F);
  float total = 0.0F;
  for (Parameter* p : params_) total += p->grad.squared_norm();
  const float norm = std::sqrt(total);
  if (norm <= max_norm || norm == 0.0F) return norm;
  const float scale = max_norm / norm;
  for (Parameter* p : params_) p->grad.scale_(scale);
  return norm;
}

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  MLCR_CHECK(lr_ > 0.0F && momentum_ >= 0.0F && momentum_ < 1.0F);
  velocity_.reserve(params_.size());
  for (Parameter* p : params_)
    velocity_.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    if (momentum_ > 0.0F) {
      velocity_[i].scale_(momentum_);
      velocity_[i].axpy_(1.0F, p.grad);
      p.value.axpy_(-lr_, velocity_[i]);
    } else {
      p.value.axpy_(-lr_, p.grad);
    }
    p.grad.fill(0.0F);
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float epsilon)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  MLCR_CHECK(lr_ > 0.0F);
  MLCR_CHECK(beta1_ >= 0.0F && beta1_ < 1.0F);
  MLCR_CHECK(beta2_ >= 0.0F && beta2_ < 1.0F);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0F - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    float* m = m_[i].data();
    float* v = v_[i].data();
    float* w = p.value.data();
    const float* g = p.grad.data();
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0F - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0F - beta2_) * g[j] * g[j];
      const float m_hat = m[j] / bc1;
      const float v_hat = v[j] / bc2;
      w[j] -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
    p.grad.fill(0.0F);
  }
}

}  // namespace mlcr::nn
