// Basic layers: Linear, activations, LayerNorm, Embedding,
// Flatten. Convolution/pooling live in conv.h; attention in attention.h.
#pragma once

#include <functional>

#include "nn/module.h"

namespace cgx::nn {

// y = x W + b with W [in x out] (row-major), treating x as
// [numel/in, in]. Output shape copies x's leading dims with the last one
// replaced by `out`.
class Linear final : public Module {
 public:
  Linear(std::size_t in, std::size_t out, util::Rng& rng, bool bias = true);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "linear"; }

  Param& weight() { return weight_; }

 private:
  std::size_t in_, out_;
  Param weight_;
  Param bias_;
  bool has_bias_;
  tensor::Tensor input_;  // cached for backward
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

class ReLU final : public Module {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  std::string kind() const override { return "relu"; }

 private:
  tensor::Tensor input_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

// tanh-approximation GELU, as used by BERT/GPT.
class Gelu final : public Module {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  std::string kind() const override { return "gelu"; }

 private:
  tensor::Tensor input_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

class Tanh final : public Module {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  std::string kind() const override { return "tanh"; }

 private:
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

// Normalizes the last dimension; learnable gain/bias. The canonical
// "sensitive while small" layer the CGX filters keep in full precision.
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(std::size_t dim, float eps = 1e-5f);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "ln"; }

 private:
  std::size_t dim_;
  float eps_;
  Param gain_;
  Param bias_;
  tensor::Tensor normalized_;  // x_hat, cached
  std::vector<float> inv_std_;
  std::vector<float> dxhat_;  // backward scratch, grow-only
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

// Token embedding: input [B, T] of (float-encoded) token ids -> [B, T, D].
// Also usable as a learned positional embedding via position_mode(), where
// the row index is the position t rather than the input value.
class Embedding final : public Module {
 public:
  Embedding(std::size_t vocab, std::size_t dim, util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<Param*>& out) override;
  std::string kind() const override { return "embedding"; }

 private:
  std::size_t vocab_, dim_;
  Param table_;
  std::vector<std::size_t> last_ids_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;  // zeros; ids are not differentiable
};

// Collapses all dims after the batch dim.
class Flatten final : public Module {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& x, bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_out) override;
  std::string kind() const override { return "flatten"; }

 private:
  tensor::Shape input_shape_;
  tensor::Tensor output_;
  tensor::Tensor grad_in_;
};

}  // namespace cgx::nn
