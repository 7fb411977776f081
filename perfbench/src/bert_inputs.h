// Generated inputs for the two gradient-sync workloads: a BERT-base layer
// layout scaled down by a constant factor, and one gradient per rank.
//
// Each layer's size is drawn per seed within ±2% of the scaled BERT-base
// size, so the seed varies the model shape (and with it the modelled step
// time of the virtual-clock workload) while keeping the layer mix. Rank
// gradients share a per-layer component and differ by per-rank noise, the
// way data-parallel gradients of one model do:
//
//   g_r[i] = s_l * (c[i] + 0.5 * u_r[i]),  c ~ N(0,1), u_r ~ U(-1,1)
//
// with a per-layer scale s_l, so QSGD's per-bucket norms vary by layer.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "core/compression_config.h"
#include "harness.h"
#include "models/paper_profiles.h"
#include "tensor/layer_layout.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

struct SyncInputs {
  tensor::LayerLayout layout;
  std::vector<std::vector<float>> grads;  // one per rank
  std::vector<float> mean;                // exact FP32 mean over ranks
};

inline tensor::LayerLayout bert_layout(const models::PaperModel& bert,
                                       double scale, std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eedULL);
  tensor::LayerLayout layout;
  for (const auto& layer : bert.layout.layers()) {
    const double jitter = 0.98 + 0.04 * rng.next_double();
    const auto numel = static_cast<std::size_t>(
        static_cast<double>(layer.numel) / scale * jitter);
    layout.add_layer(layer.name, std::max<std::size_t>(numel, 48));
  }
  return layout;
}

inline SyncInputs make_sync_inputs(tensor::LayerLayout layout, int world,
                                   std::uint64_t seed) {
  SyncInputs in;
  in.layout = std::move(layout);
  const std::size_t n = in.layout.total_numel();
  util::Rng rng(seed);
  std::vector<float> scale(in.layout.layer_count());
  for (auto& s : scale) s = static_cast<float>(std::exp(0.5 * rng.next_gaussian()));
  std::vector<float> shared(n);
  for (auto& v : shared) v = static_cast<float>(rng.next_gaussian());

  in.grads.assign(static_cast<std::size_t>(world), std::vector<float>(n));
  std::vector<std::thread> workers;
  for (int r = 0; r < world; ++r) {
    workers.emplace_back([&, r] {
      util::Rng noise_rng = util::Rng(seed).split(100 + static_cast<std::uint64_t>(r));
      auto& g = in.grads[static_cast<std::size_t>(r)];
      noise_rng.fill_floats(g);
      for (std::size_t l = 0; l < in.layout.layer_count(); ++l) {
        const auto& info = in.layout.layer(l);
        for (std::size_t i = info.offset; i < info.offset + info.numel; ++i) {
          g[i] = scale[l] * (shared[i] + 0.5f * (2.0f * g[i] - 1.0f));
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  in.mean.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (const auto& g : in.grads) sum += g[i];
    in.mean[i] = static_cast<float>(sum / world);
  }
  return in;
}

// Expected squared error of QSGD on `v` (bucketed from v's start, L2 bucket
// norms), E||Q(v) - v||^2 = sum_i (N/s)^2 f_i (1 - f_i) with N the bucket
// norm, s the level count and f_i = frac(|v_i| s / N): each element rounds
// to one of its two neighbouring grid points, unbiased. When `draw` is
// given, one sample of Q(v), drawn with a reference stochastic rounding, is
// also added into `sum`.
inline double qsgd_sq_error(std::span<const double> v, unsigned bits,
                            std::size_t bucket, util::Rng* draw,
                            std::span<double> sum) {
  const double s = static_cast<double>((1u << (bits - 1)) - 1);
  double err = 0.0;
  for (std::size_t first = 0; first < v.size(); first += bucket) {
    const std::size_t last = std::min(first + bucket, v.size());
    double norm = 0.0;
    for (std::size_t i = first; i < last; ++i) norm += v[i] * v[i];
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    double bucket_err = 0.0;
    for (std::size_t i = first; i < last; ++i) {
      const double a = std::abs(v[i]) * s / norm;
      const double f = a - std::floor(a);
      bucket_err += f * (1.0 - f);
      if (draw != nullptr) {
        const double level = std::floor(a) + (draw->next_double() < f ? 1.0 : 0.0);
        sum[i] += std::copysign(level * norm / s, v[i]);
      }
    }
    err += bucket_err * (norm / s) * (norm / s);
  }
  return err;
}

// Expected relative L2 error of CGX's compressed scatter-reduce-allgather
// (core/compressed_allreduce.h) when it sums `parts` (one per participant)
// and divides by `divisor`, against `mean`, computed from the run's own
// inputs. The collective runs once per compressed layer: chunk p of the
// layer (comm::chunk_range) is quantized once by every participant but its
// aggregator p, and the reduced chunk once more on the way back. Both
// rounds are unbiased, so their squared errors add in expectation. The
// first round's is exact; the second's is taken on one draw of the reduced
// chunk. With millions of elements the measured error sits within a
// fraction of a percent of this value. An all-zero result has error 1.
inline double expected_sra_rel_error(const tensor::LayerLayout& layout,
                                     const core::CompressionConfig& config,
                                     const std::vector<std::vector<float>>& parts,
                                     std::span<const float> mean,
                                     double divisor, std::uint64_t seed) {
  const int n = static_cast<int>(parts.size());
  util::Rng draw(seed ^ 0xe4404ULL);
  std::vector<double> part, reduced;
  double err = 0.0;
  for (std::size_t l = 0; l < layout.layer_count(); ++l) {
    const auto& info = layout.layer(l);
    const core::LayerCompression cfg = config.for_layer(info.name, info.numel);
    if (cfg.method == core::Method::None) continue;  // FP32: exact
    CGX_CHECK(cfg.method == core::Method::Qsgd) << "expected QSGD layers";
    for (int p = 0; p < n; ++p) {
      const auto [first, last] = comm::chunk_range(info.numel, n, p);
      reduced.assign(last - first, 0.0);
      for (int r = 0; r < n; ++r) {
        const auto& g = parts[static_cast<std::size_t>(r)];
        part.assign(g.begin() + static_cast<std::ptrdiff_t>(info.offset + first),
                    g.begin() + static_cast<std::ptrdiff_t>(info.offset + last));
        if (r == p) {
          for (std::size_t i = 0; i < part.size(); ++i) reduced[i] += part[i];
        } else {
          err += qsgd_sq_error(part, cfg.bits, cfg.bucket_size, &draw, reduced);
        }
      }
      err += qsgd_sq_error(reduced, cfg.bits, cfg.bucket_size, nullptr, {});
    }
  }
  double m = 0.0;
  for (float x : mean) m += static_cast<double>(x) * x;
  return std::sqrt(err / (divisor * divisor) / m);
}

// The sync workloads' error gate: the measured relative error must sit
// within kSyncErrorMargin of its expectation, on both sides. The ceiling
// catches a result that is too coarse and must stay below 1, the error of
// an all-zero result. The floor catches a reduction that drops a
// contribution: quantization noise dominates the error, and a sum over
// fewer ranks is quantized with a smaller norm, so leaving one peer out of
// each reduced chunk LOWERS the error (0.60 against an expected 0.71 on
// a 4-rank run of the sync_bert layout).
constexpr double kSyncErrorMargin = 0.02;

inline void check_sync_error(Result& res, double observed, double expected) {
  const double floor = expected * (1.0 - kSyncErrorMargin);
  const double ceiling = expected * (1.0 + kSyncErrorMargin);
  res.metrics["sync_rel_error_expected"] = expected;
  res.check(ceiling < 1.0, "QSGD error ceiling " + std::to_string(ceiling) +
                               " cannot tell a result from zeros");
  res.check(observed >= floor && observed <= ceiling,
            "sync_rel_error " + std::to_string(observed) + " outside [" +
                std::to_string(floor) + ", " + std::to_string(ceiling) +
                "], the expected QSGD error +-" +
                std::to_string(100 * kSyncErrorMargin) + "%");
}

}  // namespace perfbench
