#include "core/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "util/check.h"

namespace cgx::core {

TopKCompressor::TopKCompressor(double ratio) : ratio_(ratio) {
  CGX_CHECK(ratio > 0.0 && ratio <= 1.0);
}

std::size_t TopKCompressor::k_for(std::size_t n) const {
  if (n == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(ratio_ * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

std::size_t TopKCompressor::compressed_size(std::size_t n) const {
  if (n == 0) return 0;
  return 8 + k_for(n) * (4 + 4);
}

std::size_t TopKCompressor::compress(std::span<const float> in,
                                     std::span<std::byte> out,
                                     util::Rng& rng) {
  (void)rng;
  const std::size_t n = in.size();
  if (n == 0) return 0;
  const std::size_t k = k_for(n);
  const std::size_t total = compressed_size(n);
  CGX_CHECK_LE(total, out.size());

  // Partial selection of the k largest |v|; ties broken by lower index for
  // determinism.
  order_.resize(n);
  const std::span<std::uint32_t> order(order_.data(), n);
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     const float fa = std::fabs(in[a]);
                     const float fb = std::fabs(in[b]);
                     if (fa != fb) return fa > fb;
                     return a < b;
                   });
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));

  const std::uint64_t k64 = k;
  std::memcpy(out.data(), &k64, 8);
  auto* indices = reinterpret_cast<std::uint32_t*>(out.data() + 8);
  auto* values = reinterpret_cast<float*>(out.data() + 8 + 4 * k);
  for (std::size_t i = 0; i < k; ++i) {
    indices[i] = order[i];
    values[i] = in[order[i]];
  }
  return total;
}

void TopKCompressor::decompress(std::span<const std::byte> in,
                                std::span<float> out) {
  std::fill(out.begin(), out.end(), 0.0f);
  if (in.empty()) return;
  CGX_CHECK_GE(in.size(), 8u);
  std::uint64_t k64 = 0;
  std::memcpy(&k64, in.data(), 8);
  // Bound k before multiplying: a crafted k near 2^61 would wrap 8 * k to a
  // small number and pass the size check.
  CGX_CHECK_LE(k64, (in.size() - 8) / 8);
  const auto k = static_cast<std::size_t>(k64);
  CGX_CHECK_EQ(in.size(), 8 + 8 * k);
  const auto* indices = reinterpret_cast<const std::uint32_t*>(in.data() + 8);
  const auto* values = reinterpret_cast<const float*>(in.data() + 8 + 4 * k);
  for (std::size_t i = 0; i < k; ++i) {
    CGX_CHECK_LT(indices[i], out.size());
    out[indices[i]] = values[i];
  }
}

std::string TopKCompressor::name() const {
  return "topk(" + std::to_string(ratio_) + ")";
}

std::size_t TopKCompressor::scratch_bytes() const {
  return sizeof(std::uint32_t) * order_.size();
}

// ------------------------------------------------------------------ DGC

DgcTopK::DgcTopK(double ratio, float momentum, double clip)
    : inner_(ratio), momentum_(momentum), clip_(clip) {
  CGX_CHECK(momentum >= 0.0f && momentum < 1.0f);
}

std::size_t DgcTopK::compressed_size(std::size_t n) const {
  return inner_.compressed_size(n);
}

std::size_t DgcTopK::compress(std::span<const float> in,
                              std::span<std::byte> out, util::Rng& rng) {
  const std::size_t n = in.size();
  if (n == 0) return 0;
  if (u_.size() != n) {
    u_.assign(n, 0.0f);
    v_.assign(n, 0.0f);
    norm_ema_ = 0.0;
  }

  // Local gradient clipping: scale the incoming gradient down to at most
  // clip_ * EMA(||g||). DGC clips before the momentum update so one
  // outlier step cannot poison the accumulated velocity.
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    norm_sq += static_cast<double>(in[i]) * in[i];
  }
  const double norm = std::sqrt(norm_sq);
  float scale = 1.0f;
  if (clip_ > 0.0 && norm_ema_ > 0.0 && norm > clip_ * norm_ema_) {
    scale = static_cast<float>(clip_ * norm_ema_ / norm);
  }
  norm_ema_ = norm_ema_ == 0.0 ? norm : 0.9 * norm_ema_ + 0.1 * norm;

  // u <- m*u + clip(g); v <- v + u.
  float* u = u_.data();
  float* v = v_.data();
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = momentum_ * u[i] + scale * in[i];
    v[i] += u[i];
  }

  // Select and emit the top-k of |v| through the plain TopK path (same
  // wire format, same deterministic tie-break), then zero the momentum and
  // velocity at the transmitted coordinates (DGC's masking step).
  const std::size_t written =
      inner_.compress({v_.data(), n}, out, rng);
  std::uint64_t k64 = 0;
  std::memcpy(&k64, out.data(), 8);
  const auto* indices = reinterpret_cast<const std::uint32_t*>(out.data() + 8);
  for (std::size_t i = 0; i < static_cast<std::size_t>(k64); ++i) {
    u[indices[i]] = 0.0f;
    v[indices[i]] = 0.0f;
  }
  return written;
}

void DgcTopK::decompress(std::span<const std::byte> in,
                         std::span<float> out) {
  inner_.decompress(in, out);
}

std::string DgcTopK::name() const {
  return "dgc-" + inner_.name();
}

std::size_t DgcTopK::scratch_bytes() const {
  return sizeof(float) * (u_.size() + v_.size()) + inner_.scratch_bytes();
}

double DgcTopK::residual_norm() const {
  double sq = 0.0;
  for (std::size_t i = 0; i < v_.size(); ++i) {
    sq += static_cast<double>(v_.data()[i]) * v_.data()[i];
  }
  return std::sqrt(sq);
}

}  // namespace cgx::core
