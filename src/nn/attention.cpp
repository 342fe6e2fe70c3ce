#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

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

/// The first `rows` rows of x += those of y (same shape).
void add_rows(Tensor& x, const Tensor& y, std::size_t rows) {
  float* out = x.data();
  const float* in = y.data();
  for (std::size_t i = 0; i < rows * x.cols(); ++i) out[i] += in[i];
}

/// Rows [from, t.rows()) of t become copies of row from - 1.
void repeat_last_row(Tensor& t, std::size_t from) {
  for (std::size_t r = from; r < t.rows(); ++r)
    std::memcpy(t.row(r), t.row(from - 1), t.cols() * sizeof(float));
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

template <class Self>
void MultiHeadAttention::run(Self& self, const Tensor& input,
                             std::size_t rows, BlockWorkspace& ws) {
  const std::size_t tokens = input.rows();
  const std::size_t dim = self.dim_;
  const std::size_t head_dim = self.head_dim_;
  MLCR_CHECK(input.cols() == dim && rows > 0 && rows <= tokens);
  BlockWorkspace* w = &ws;
  if constexpr (kTraining<Self>) {
    MLCR_CHECK(rows == tokens);
    if (!self.cache_.q.same_shape(input)) {
      self.cache_ = BlockWorkspace(tokens, dim, self.heads_, 0);
      self.attn_.assign(self.heads_, Tensor(tokens, tokens));
    }
    w = &self.cache_;
  }
  MLCR_CHECK(w->key_t.rows() == head_dim && w->key_t.cols() == tokens);
  MLCR_CHECK(w->scores.rows() == tokens && w->scores.cols() == tokens);
  MLCR_CHECK(w->concat.rows() == tokens && w->concat.cols() == dim);
  Linear::run(self.q_proj_, input, rows, w->q);
  Linear::run(self.k_proj_, input, rows, w->k);
  Linear::run(self.v_proj_, input, rows, w->v);
  // Equal input rows project to equal keys and values, so every query
  // still attends over all T of them: the values are copied out to T rows,
  // and score columns [rows, tokens) would repeat column rows - 1, so only
  // the first `rows` are used and softmax_rows_ fills in the rest. The
  // product still runs over `cols`, `rows` rounded up to a full 8-float
  // panel (gemm runs a narrower remainder a column at a time), with key
  // rows - 1 repeated in key_t's padding columns.
  repeat_last_row(w->v, rows);
  const std::size_t cols = std::min(tokens, (rows + 7) / 8 * 8);

  // Per head, on strided views: scores = q_h k_h^T, then attn . v_h, whose
  // output lands in the head's concat columns.
  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim));
  for (std::size_t h = 0; h < self.heads_; ++h) {
    Tensor* scores = &w->scores;
    if constexpr (kTraining<Self>) scores = &self.attn_[h];
    const std::size_t from = h * head_dim;
    for (std::size_t r = 0; r < cols; ++r)
      for (std::size_t c = 0; c < head_dim; ++c)
        w->key_t(c, r) = w->k(std::min(r, rows - 1), from + c);
    gemm(w->q.data() + from, dim, w->key_t.data(), tokens, nullptr,
         scores->data(), tokens, rows, head_dim, cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < rows; ++j) (*scores)(i, j) *= scale;
    softmax_rows_(*scores, rows, rows);
    gemm(scores->data(), tokens, w->v.data() + from, dim, nullptr,
         w->concat.data() + from, dim, rows, tokens, head_dim);
  }
  Linear::run(self.out_proj_, w->concat, rows, ws.out);
}
template void MultiHeadAttention::run(MultiHeadAttention&, const Tensor&,
                                      std::size_t, BlockWorkspace&);
template void MultiHeadAttention::run(const MultiHeadAttention&,
                                      const Tensor&, std::size_t,
                                      BlockWorkspace&);

Tensor MultiHeadAttention::forward(const Tensor& input) {
  // The training pass sizes cache_ and computes in it, ws.out included.
  run(*this, input, input.rows(), cache_);
  return cache_.out;
}

Tensor MultiHeadAttention::backward(const Tensor& grad_output) {
  const Tensor grad_concat = out_proj_.backward(grad_output);

  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim_));
  Tensor grad_q(cache_.q.rows(), dim_);
  Tensor grad_k(cache_.k.rows(), dim_);
  Tensor grad_v(cache_.v.rows(), dim_);

  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t from = h * head_dim_;
    const Tensor qh = col_block(cache_.q, from, head_dim_);
    const Tensor kh = col_block(cache_.k, from, head_dim_);
    const Tensor vh = col_block(cache_.v, from, head_dim_);
    const Tensor grad_oh = col_block(grad_concat, from, head_dim_);

    const Tensor grad_attn = matmul(grad_oh, vh.transposed());      // (T x T)
    const Tensor grad_vh = matmul(attn_[h].transposed(), grad_oh);  // (T x dh)
    Tensor grad_scores = softmax_rows_backward(attn_[h], grad_attn);
    grad_scores.scale_(scale);
    const Tensor grad_qh = matmul(grad_scores, kh);                 // (T x dh)
    const Tensor grad_kh = matmul(grad_scores.transposed(), qh);    // (T x dh)

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

template <class Self>
void TransformerBlock::run(Self& self, Tensor& x, std::size_t rows,
                           BlockWorkspace& ws) {
  LayerNorm::run(self.ln1_, x, rows, ws.norm);
  MultiHeadAttention::run(self.mha_, ws.norm, rows, ws);
  add_rows(x, ws.out, rows);
  LayerNorm::run(self.ln2_, x, rows, ws.norm);
  FeedForward::run(self.ffn_, ws.norm, rows, ws.hidden, ws.out);
  add_rows(x, ws.out, rows);
}
template void TransformerBlock::run(TransformerBlock&, Tensor&, std::size_t,
                                    BlockWorkspace&);
template void TransformerBlock::run(const TransformerBlock&, Tensor&,
                                    std::size_t, BlockWorkspace&);

Tensor TransformerBlock::forward(const Tensor& input) {
  Tensor x = input;
  BlockWorkspace ws(x.rows(), mha_.dim(), mha_.heads(), ffn_.hidden_dim());
  run(*this, x, x.rows(), ws);
  return x;
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
