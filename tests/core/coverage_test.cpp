// Coverage for corners the module tests leave open: Tree-scheme engines,
// unfused filtered layers, wire-size accounting across methods, and the
// Linf quantizer default paths.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "comm/transports.h"
#include "core/engine.h"
#include "core/qsgd.h"
#include "simgpu/machines.h"
#include "tensor/tensor_ops.h"

namespace cgx::core {
namespace {

tensor::LayerLayout small_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("a.weight", tensor::Shape{64, 16});
  layout.add_layer("a.bias", tensor::Shape{16});
  layout.add_layer("b.weight", tensor::Shape{16, 8});
  return layout;
}

TEST(EngineTreeScheme, EndToEndAverage) {
  EngineOptions options;
  options.scheme = comm::ReductionScheme::Tree;
  const auto layout = small_layout();
  CgxEngine engine(layout, CompressionConfig::cgx_default(), 4, options);
  std::vector<std::vector<float>> results(4);
  std::mutex mutex;
  comm::ShmTransport transport(4);
  comm::run_world(transport, [&](comm::Comm& comm) {
    std::vector<float> grad(layout.total_numel(),
                            static_cast<float>(comm.rank() + 1));
    util::Rng rng(3 + static_cast<std::uint64_t>(comm.rank()));
    engine.allreduce(comm, grad, rng);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(grad);
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(results[r], results[0]);
  // Filtered bias is exact: mean = 2.5.
  const auto bias = layout.slice(std::span<const float>(results[0]), 1);
  for (float v : bias) EXPECT_NEAR(v, 2.5f, 1e-5f);
}

TEST(EngineNoAverage, ReturnsSum) {
  EngineOptions options;
  options.average = false;
  const auto layout = small_layout();
  CgxEngine engine(layout, CompressionConfig::uncompressed(), 4, options);
  comm::ShmTransport transport(4);
  comm::run_world(transport, [&](comm::Comm& comm) {
    std::vector<float> grad(layout.total_numel(), 1.0f);
    util::Rng rng(1);
    engine.allreduce(comm, grad, rng);
    for (float v : grad) EXPECT_NEAR(v, 4.0f, 1e-5f);
  });
}

TEST(WireBytes, NuqAndTernGradAccounting) {
  LayerCompression nuq;
  nuq.method = Method::Nuq;
  nuq.bits = 4;
  nuq.bucket_size = 128;
  LayerCompression qsgd;  // same parameters by default
  EXPECT_EQ(wire_bytes(nuq, 4096, 0), wire_bytes(qsgd, 4096, 0));

  LayerCompression tern;
  tern.method = Method::TernGrad;
  tern.bucket_size = 512;
  // 2 bits per element + one fp32 scale per bucket.
  EXPECT_EQ(wire_bytes(tern, 4096, 0), 8 * 4 + 4096 / 4);
}

TEST(QsgdLinf, DefaultAndLinfAgreeOnScaleFreeProperties) {
  // Both norms produce unbiased estimators; Linf guarantees values never
  // exceed the bucket max.
  util::Rng rng(8);
  std::vector<float> in(256);
  for (auto& v : in) v = static_cast<float>(rng.next_gaussian());
  for (QsgdNorm norm : {QsgdNorm::L2, QsgdNorm::Linf}) {
    QsgdCompressor c(4, 64, norm);
    std::vector<double> mean(in.size(), 0.0);
    std::vector<std::byte> payload(c.compressed_size(in.size()));
    std::vector<float> out(in.size());
    constexpr int kReps = 1500;
    for (int r = 0; r < kReps; ++r) {
      c.compress(in, payload, rng);
      c.decompress(payload, out);
      for (std::size_t i = 0; i < in.size(); ++i) mean[i] += out[i];
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_NEAR(mean[i] / kReps, in[i], 0.35)
          << (norm == QsgdNorm::L2 ? "L2" : "Linf") << " i=" << i;
    }
  }
}

TEST(ConfigMinCompressNumel, SetterRoutesSmallLayers) {
  CompressionConfig config = CompressionConfig::cgx_default();
  config.set_min_compress_numel(1000);
  EXPECT_EQ(config.min_compress_numel(), 1000u);
  EXPECT_EQ(config.for_layer("mid.weight", 999).method, Method::None);
  EXPECT_EQ(config.for_layer("mid.weight", 1000).method, Method::Qsgd);
}

TEST(QncclPlan, WireBytesBetweenBaselineAndCgx) {
  // QNCCL compresses (so beats the FP32 baseline) but rides ring+NCCL with
  // blob quantization (so pays at least what CGX pays).
  tensor::LayerLayout layout;
  layout.add_layer("big", tensor::Shape{1 << 20});
  const auto machine = simgpu::make_rtx3090_8x();
  comm::NcclTransport nccl(8);
  const simgpu::CostModel cost(machine.topology, nccl.profile());
  QncclEngine qnccl(layout, 4, 128, 8);
  BaselineEngine baseline(layout, 8);
  const double qnccl_bytes = qnccl.comm_plan(cost, 200).wire_bytes_per_rank;
  const double base_bytes =
      baseline.comm_plan(cost, 200).wire_bytes_per_rank;
  EXPECT_LT(qnccl_bytes, base_bytes / 5);
  EXPECT_GT(qnccl_bytes, base_bytes / 10);
}

}  // namespace
}  // namespace cgx::core
