#include "nn/layers.h"

#include <cmath>

#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/simd.h"

namespace cgx::nn {

void zero_grads(const std::vector<Param*>& params) {
  for (Param* p : params) p->grad.zero();
}

std::size_t param_count(const std::vector<Param*>& params) {
  std::size_t n = 0;
  for (const Param* p : params) n += p->value.numel();
  return n;
}

// ----------------------------------------------------------------- Linear

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng, bool bias)
    : in_(in),
      out_(out),
      weight_("weight", tensor::Shape{in, out}),
      bias_("bias", tensor::Shape{out}),
      has_bias_(bias) {
  CGX_CHECK_GT(in, 0u);
  CGX_CHECK_GT(out, 0u);
  // Kaiming-uniform-ish init.
  const float bound = std::sqrt(6.0f / static_cast<float>(in + out));
  weight_.value.fill_uniform(rng, -bound, bound);
  bias_.value.zero();
}

const tensor::Tensor& Linear::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  CGX_CHECK_EQ(x.numel() % in_, 0u);
  const std::size_t rows = x.numel() / in_;
  input_ = x.clone();
  tensor::Shape out_shape = x.shape();
  CGX_CHECK(!out_shape.empty());
  out_shape.back() = out_;
  // For inputs whose last dim != in_ but whose numel is divisible (e.g.
  // flattened), fall back to [rows, out].
  if (x.shape().back() != in_) out_shape = tensor::Shape{rows, out_};
  output_ = tensor::Tensor(out_shape);
  tensor::matmul(x.data(), weight_.value.data(), output_.data(), rows, in_,
                 out_);
  if (has_bias_) {
    auto out = output_.data();
    const auto b = bias_.value.data();
    for (std::size_t r = 0; r < rows; ++r) {
      util::simd::add(out.subspan(r * out_, out_), b);
    }
  }
  return output_;
}

const tensor::Tensor& Linear::backward(const tensor::Tensor& grad_out) {
  const std::size_t rows = input_.numel() / in_;
  CGX_CHECK_EQ(grad_out.numel(), rows * out_);
  // dW += x^T g   (x: [rows x in], g: [rows x out])
  tensor::Tensor dw(tensor::Shape{in_, out_});
  tensor::matmul_at_b(input_.data(), grad_out.data(), dw.data(), rows, in_,
                      out_);
  tensor::add_inplace(weight_.grad.data(), dw.data());
  if (has_bias_) {
    auto bg = bias_.grad.data();
    const auto g = grad_out.data();
    for (std::size_t r = 0; r < rows; ++r) {
      util::simd::add(bg, g.subspan(r * out_, out_));
    }
  }
  // dx = g W^T  (W: [in x out])
  grad_in_ = tensor::Tensor(input_.shape());
  tensor::matmul_a_bt(grad_out.data(), weight_.value.data(), grad_in_.data(),
                      rows, out_, in_);
  return grad_in_;
}

void Linear::collect_params(const std::string& prefix,
                            std::vector<Param*>& out) {
  weight_.name = prefix + "weight";
  out.push_back(&weight_);
  if (has_bias_) {
    bias_.name = prefix + "bias";
    out.push_back(&bias_);
  }
}

// ----------------------------------------------------------------- ReLU

const tensor::Tensor& ReLU::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  input_ = x.clone();
  output_ = x.clone();
  for (auto& v : output_.data()) v = v > 0.0f ? v : 0.0f;
  return output_;
}

const tensor::Tensor& ReLU::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), input_.numel());
  grad_in_ = grad_out.clone();
  auto g = grad_in_.data();
  const auto x = input_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
  return grad_in_;
}

// ----------------------------------------------------------------- GELU

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

const tensor::Tensor& Gelu::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  input_ = x.clone();
  output_ = x.clone();
  for (auto& v : output_.data()) {
    const float t = std::tanh(kGeluC * (v + 0.044715f * v * v * v));
    v = 0.5f * v * (1.0f + t);
  }
  return output_;
}

const tensor::Tensor& Gelu::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), input_.numel());
  grad_in_ = grad_out.clone();
  auto g = grad_in_.data();
  const auto xs = input_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float x = xs[i];
    const float u = kGeluC * (x + 0.044715f * x * x * x);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
    const float dgelu = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
    g[i] *= dgelu;
  }
  return grad_in_;
}

// ----------------------------------------------------------------- Tanh

const tensor::Tensor& Tanh::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  output_ = x.clone();
  for (auto& v : output_.data()) v = std::tanh(v);
  return output_;
}

const tensor::Tensor& Tanh::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), output_.numel());
  grad_in_ = grad_out.clone();
  auto g = grad_in_.data();
  const auto y = output_.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= 1.0f - y[i] * y[i];
  return grad_in_;
}

// ----------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(std::size_t dim, float eps)
    : dim_(dim),
      eps_(eps),
      gain_("weight", tensor::Shape{dim}),
      bias_("bias", tensor::Shape{dim}) {
  CGX_CHECK_GT(dim, 0u);
  gain_.value.fill(1.0f);
  bias_.value.zero();
}

const tensor::Tensor& LayerNorm::forward(const tensor::Tensor& x,
                                         bool train) {
  (void)train;
  CGX_CHECK_EQ(x.numel() % dim_, 0u);
  const std::size_t rows = x.numel() / dim_;
  normalized_ = tensor::Tensor(x.shape());
  output_ = tensor::Tensor(x.shape());
  inv_std_.resize(rows);
  const auto in = x.data();
  auto xhat = normalized_.data();
  auto out = output_.data();
  const auto g = gain_.value.data();
  const auto b = bias_.value.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = &in[r * dim_];
    const std::span<const float> row_span{row, dim_};
    const double mean =
        util::simd::reduce_sum(row_span) / static_cast<double>(dim_);
    const double var = util::simd::reduce_sqdiff(row_span, mean) /
                       static_cast<double>(dim_);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    inv_std_[r] = inv;
    for (std::size_t c = 0; c < dim_; ++c) {
      const float h = (row[c] - static_cast<float>(mean)) * inv;
      xhat[r * dim_ + c] = h;
      out[r * dim_ + c] = h * g[c] + b[c];
    }
  }
  return output_;
}

const tensor::Tensor& LayerNorm::backward(const tensor::Tensor& grad_out) {
  const std::size_t rows = normalized_.numel() / dim_;
  CGX_CHECK_EQ(grad_out.numel(), rows * dim_);
  grad_in_ = tensor::Tensor(normalized_.shape());
  const auto go = grad_out.data();
  const auto xhat = normalized_.data();
  const auto g = gain_.value.data();
  auto gg = gain_.grad.data();
  auto bg = bias_.grad.data();
  auto gi = grad_in_.data();
  dxhat_.resize(dim_);
  const std::span<float> dxhat{dxhat_};
  for (std::size_t r = 0; r < rows; ++r) {
    // dL/dxhat = go * gain; then the standard layer-norm input gradient:
    // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
    const std::span<const float> go_row = go.subspan(r * dim_, dim_);
    const std::span<const float> xhat_row = xhat.subspan(r * dim_, dim_);
    for (std::size_t c = 0; c < dim_; ++c) dxhat[c] = go_row[c] * g[c];
    const double sum_dxhat = util::simd::reduce_sum(dxhat);
    const double sum_dxhat_xhat = util::simd::reduce_dot(dxhat, xhat_row);
    util::simd::madd(gg, go_row, xhat_row);
    util::simd::add(bg, go_row);
    const float mean_dxhat =
        static_cast<float>(sum_dxhat / static_cast<double>(dim_));
    const float mean_dxhat_xhat =
        static_cast<float>(sum_dxhat_xhat / static_cast<double>(dim_));
    for (std::size_t c = 0; c < dim_; ++c) {
      gi[r * dim_ + c] =
          inv_std_[r] * (dxhat[c] - mean_dxhat - xhat_row[c] * mean_dxhat_xhat);
    }
  }
  return grad_in_;
}

void LayerNorm::collect_params(const std::string& prefix,
                               std::vector<Param*>& out) {
  gain_.name = prefix + "weight";
  bias_.name = prefix + "bias";
  out.push_back(&gain_);
  out.push_back(&bias_);
}

// ----------------------------------------------------------------- Embedding

Embedding::Embedding(std::size_t vocab, std::size_t dim, util::Rng& rng)
    : vocab_(vocab), dim_(dim), table_("weight", tensor::Shape{vocab, dim}) {
  table_.value.fill_gaussian(rng, 0.0f, 0.02f);
}

const tensor::Tensor& Embedding::forward(const tensor::Tensor& x,
                                         bool train) {
  (void)train;
  const std::size_t n = x.numel();
  last_ids_.resize(n);
  tensor::Shape out_shape = x.shape();
  out_shape.push_back(dim_);
  output_ = tensor::Tensor(out_shape);
  const auto ids = x.data();
  auto out = output_.data();
  const auto table = table_.value.data();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::size_t>(ids[i]);
    CGX_DCHECK(id < vocab_);
    last_ids_[i] = id;
    for (std::size_t d = 0; d < dim_; ++d) {
      out[i * dim_ + d] = table[id * dim_ + d];
    }
  }
  grad_in_ = tensor::Tensor(x.shape());  // zeros
  return output_;
}

const tensor::Tensor& Embedding::backward(const tensor::Tensor& grad_out) {
  CGX_CHECK_EQ(grad_out.numel(), last_ids_.size() * dim_);
  auto tg = table_.grad.data();
  const auto go = grad_out.data();
  for (std::size_t i = 0; i < last_ids_.size(); ++i) {
    const std::size_t id = last_ids_[i];
    for (std::size_t d = 0; d < dim_; ++d) {
      tg[id * dim_ + d] += go[i * dim_ + d];
    }
  }
  return grad_in_;
}

void Embedding::collect_params(const std::string& prefix,
                               std::vector<Param*>& out) {
  table_.name = prefix + "weight";
  out.push_back(&table_);
}

// ----------------------------------------------------------------- Flatten

const tensor::Tensor& Flatten::forward(const tensor::Tensor& x, bool train) {
  (void)train;
  input_shape_ = x.shape();
  output_ = x.clone();
  CGX_CHECK_GE(x.rank(), 1u);
  output_.reshape(tensor::Shape{x.dim(0), x.numel() / x.dim(0)});
  return output_;
}

const tensor::Tensor& Flatten::backward(const tensor::Tensor& grad_out) {
  grad_in_ = grad_out.clone();
  grad_in_.reshape(input_shape_);
  return grad_in_;
}

}  // namespace cgx::nn
