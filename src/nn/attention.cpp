#include "nn/attention.hpp"

#include <cmath>

#include "util/check.hpp"

namespace mlcr::nn {

namespace {

/// Copy a column block [from, from + width) of `src` into a new tensor.
[[nodiscard]] Tensor col_block(const Tensor& src, std::size_t from,
                               std::size_t width) {
  Tensor out(src.rows(), width);
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const float* in = src.row(r) + from;
    float* o = out.row(r);
    for (std::size_t c = 0; c < width; ++c) o[c] = in[c];
  }
  return out;
}

/// dst[:, from : from + block.cols()] += block.
void add_col_block(Tensor& dst, std::size_t from, const Tensor& block) {
  MLCR_CHECK(dst.rows() == block.rows());
  MLCR_CHECK(from + block.cols() <= dst.cols());
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    float* out = dst.row(r) + from;
    const float* in = block.row(r);
    for (std::size_t c = 0; c < block.cols(); ++c) out[c] += in[c];
  }
}

}  // namespace

BlockWorkspace::BlockWorkspace(std::size_t tokens, std::size_t dim,
                               std::size_t heads, std::size_t ffn_dim)
    : norm(tokens, dim),
      q(tokens, dim),
      k(tokens, dim),
      v(tokens, dim),
      key_t(dim / heads, tokens),
      scores(tokens, tokens),
      concat(tokens, dim),
      out(tokens, dim),
      hidden(tokens, ffn_dim) {
  MLCR_CHECK(heads > 0 && dim % heads == 0);
}

MultiHeadAttention::MultiHeadAttention(std::size_t dim, std::size_t heads,
                                       util::Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      q_proj_(dim, dim, rng),
      k_proj_(dim, dim, rng),
      v_proj_(dim, dim, rng),
      out_proj_(dim, dim, rng) {
  MLCR_CHECK_MSG(heads > 0 && dim % heads == 0,
                 "dim " << dim << " must be divisible by heads " << heads);
}

Tensor MultiHeadAttention::forward(const Tensor& input) {
  MLCR_CHECK(input.cols() == dim_);
  q_ = q_proj_.forward(input);
  k_ = k_proj_.forward(input);
  v_ = v_proj_.forward(input);

  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim_));
  attn_.assign(heads_, Tensor());
  Tensor concat(input.rows(), dim_);
  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t from = h * head_dim_;
    const Tensor qh = col_block(q_, from, head_dim_);
    const Tensor kh = col_block(k_, from, head_dim_);
    const Tensor vh = col_block(v_, from, head_dim_);
    Tensor scores = matmul_nt(qh, kh);
    scores.scale_(scale);
    attn_[h] = softmax_rows(scores);
    add_col_block(concat, from, matmul(attn_[h], vh));
  }
  return out_proj_.forward(concat);
}

void MultiHeadAttention::infer(const Tensor& input, BlockWorkspace& ws) const {
  const std::size_t tokens = input.rows();
  MLCR_CHECK(input.cols() == dim_);
  MLCR_CHECK(ws.key_t.rows() == head_dim_ && ws.key_t.cols() == tokens);
  MLCR_CHECK(ws.scores.rows() == tokens && ws.scores.cols() == tokens);
  MLCR_CHECK(ws.concat.rows() == tokens && ws.concat.cols() == dim_);
  q_proj_.infer(input, ws.q);
  k_proj_.infer(input, ws.k);
  v_proj_.infer(input, ws.v);

  // forward()'s per-head arithmetic on strided views: scores = q_h k_h^T
  // adds every term (matmul_nt), attn . v_h skips zero weights (matmul),
  // and each head's output lands in its concat columns directly (forward()
  // adds it to zeros: 0 + x == x, as gemm never yields -0).
  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim_));
  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t from = h * head_dim_;
    for (std::size_t r = 0; r < tokens; ++r)
      for (std::size_t c = 0; c < head_dim_; ++c)
        ws.key_t(c, r) = ws.k(r, from + c);
    gemm(ws.q.data() + from, dim_, ws.key_t.data(), tokens, nullptr,
         ws.scores.data(), tokens, tokens, head_dim_, tokens,
         /*skip_zero_a=*/false);
    ws.scores.scale_(scale);
    softmax_rows_(ws.scores);
    gemm(ws.scores.data(), tokens, ws.v.data() + from, dim_, nullptr,
         ws.concat.data() + from, dim_, tokens, tokens, head_dim_,
         /*skip_zero_a=*/true);
  }
  out_proj_.infer(ws.concat, ws.out);
}

Tensor MultiHeadAttention::backward(const Tensor& grad_output) {
  const Tensor grad_concat = out_proj_.backward(grad_output);

  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim_));
  Tensor grad_q(q_.rows(), dim_);
  Tensor grad_k(k_.rows(), dim_);
  Tensor grad_v(v_.rows(), dim_);

  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t from = h * head_dim_;
    const Tensor qh = col_block(q_, from, head_dim_);
    const Tensor kh = col_block(k_, from, head_dim_);
    const Tensor vh = col_block(v_, from, head_dim_);
    const Tensor grad_oh = col_block(grad_concat, from, head_dim_);

    const Tensor grad_attn = matmul_nt(grad_oh, vh);        // (T x T)
    const Tensor grad_vh = matmul_tn(attn_[h], grad_oh);    // (T x dh)
    Tensor grad_scores = softmax_rows_backward(attn_[h], grad_attn);
    grad_scores.scale_(scale);
    const Tensor grad_qh = matmul(grad_scores, kh);          // (T x dh)
    const Tensor grad_kh = matmul_tn(grad_scores, qh);       // (T x dh)

    add_col_block(grad_q, from, grad_qh);
    add_col_block(grad_k, from, grad_kh);
    add_col_block(grad_v, from, grad_vh);
  }

  Tensor grad_input = q_proj_.backward(grad_q);
  grad_input.add_(k_proj_.backward(grad_k));
  grad_input.add_(v_proj_.backward(grad_v));
  return grad_input;
}

void MultiHeadAttention::collect_parameters(std::vector<Parameter*>& out) {
  q_proj_.collect_parameters(out);
  k_proj_.collect_parameters(out);
  v_proj_.collect_parameters(out);
  out_proj_.collect_parameters(out);
}

TransformerBlock::TransformerBlock(std::size_t dim, std::size_t heads,
                                   std::size_t ffn_dim, util::Rng& rng)
    : ln1_(dim),
      mha_(dim, heads, rng),
      ln2_(dim),
      ffn_(dim, ffn_dim, rng) {}

Tensor TransformerBlock::forward(const Tensor& input) {
  Tensor h = input;
  h.add_(mha_.forward(ln1_.forward(input)));
  Tensor y = h;
  y.add_(ffn_.forward(ln2_.forward(h)));
  return y;
}

void TransformerBlock::infer(Tensor& x, BlockWorkspace& ws) const {
  ln1_.infer(x, ws.norm);
  mha_.infer(ws.norm, ws);
  x.add_(ws.out);
  ln2_.infer(x, ws.norm);
  ffn_.infer(ws.norm, ws.hidden, ws.out);
  x.add_(ws.out);
}

Tensor TransformerBlock::backward(const Tensor& grad_output) {
  // y = h + FFN(LN2(h)): both summands receive grad_output.
  const Tensor grad_ffn_path = ln2_.backward(ffn_.backward(grad_output));
  Tensor grad_h = grad_output;
  grad_h.add_(grad_ffn_path);
  // h = x + MHA(LN1(x)).
  const Tensor grad_mha_path = ln1_.backward(mha_.backward(grad_h));
  Tensor grad_x = grad_h;
  grad_x.add_(grad_mha_path);
  return grad_x;
}

void TransformerBlock::collect_parameters(std::vector<Parameter*>& out) {
  ln1_.collect_parameters(out);
  mha_.collect_parameters(out);
  ln2_.collect_parameters(out);
  ffn_.collect_parameters(out);
}

}  // namespace mlcr::nn
