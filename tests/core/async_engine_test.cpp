// Streaming bucketed engine tests: the bucket plan is a deterministic pure
// function of layout+policy, and the overlapped path is bit-identical to
// the facade's inline (synchronous) mode across reduction schemes, world
// sizes, notify orders, and policy rebuilds.
#include "core/async_engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <vector>

#include "comm/tagspace.h"
#include "comm/transports.h"
#include "comm/world.h"

namespace cgx::core {
namespace {

tensor::LayerLayout transformer_like_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{1000, 64});
  layout.add_layer("block0.attn.weight", tensor::Shape{64, 192});
  layout.add_layer("block0.attn.bias", tensor::Shape{192});
  layout.add_layer("block0.ln.weight", tensor::Shape{64});
  layout.add_layer("block0.ffn.weight", tensor::Shape{64, 256});
  layout.add_layer("block0.ffn.bias", tensor::Shape{256});
  layout.add_layer("head.weight", tensor::Shape{64, 100});
  return layout;
}

std::vector<float> rank_gradient(const tensor::LayerLayout& layout, int rank,
                                 int round) {
  util::Rng rng(4000 + 100 * static_cast<std::uint64_t>(round) +
                static_cast<std::uint64_t>(rank));
  std::vector<float> g(layout.total_numel());
  for (auto& v : g) v = static_cast<float>(rng.next_gaussian());
  return g;
}

AsyncGradientEngine make_engine(const tensor::LayerLayout& layout, int world,
                                comm::ReductionScheme scheme,
                                AsyncOptions aopts) {
  EngineOptions options;
  options.scheme = scheme;
  return AsyncGradientEngine(
      std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                  world, options),
      aopts);
}

// Runs `rounds` steps on every rank through the monolithic entry point and
// returns each rank's final buffer for bit-exact comparison.
std::vector<std::vector<float>> run_rounds(AsyncGradientEngine& engine,
                                           const tensor::LayerLayout& layout,
                                           int world, int rounds) {
  comm::ShmTransport transport(world);
  std::vector<std::vector<float>> result(static_cast<std::size_t>(world));
  comm::run_world(transport, [&](comm::Comm& comm) {
    util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> grad;
    for (int round = 0; round < rounds; ++round) {
      grad = rank_gradient(layout, comm.rank(), round);
      engine.allreduce(comm, grad, rng);
    }
    result[static_cast<std::size_t>(comm.rank())] = grad;
  });
  return result;
}

TEST(BucketPlan, DeterministicReverseOrderCoverage) {
  const auto layout = transformer_like_layout();
  CgxEngine engine(layout, CompressionConfig::cgx_default(), 4);
  const std::size_t kBucketBytes = std::size_t{32} << 10;
  const BucketPlan plan =
      build_bucket_plan(layout, engine.resolved(), kBucketBytes);

  // Every layer maps to exactly one bucket; filtered layers to the packet.
  ASSERT_EQ(plan.bucket_of.size(), layout.layer_count());
  EXPECT_TRUE(plan.has_packet);  // bias/ln layers exist
  for (std::size_t l = 0; l < layout.layer_count(); ++l) {
    const bool filtered = engine.resolved()[l].method == Method::None;
    ASSERT_GE(plan.bucket_of[l], 0);
    if (filtered) {
      EXPECT_EQ(static_cast<std::size_t>(plan.bucket_of[l]),
                plan.packet_index());
    } else {
      EXPECT_LT(static_cast<std::size_t>(plan.bucket_of[l]),
                plan.buckets.size());
    }
  }

  // Buckets walk layers in gradient-production (descending layout) order,
  // and all but the final bucket meet the size threshold.
  ASSERT_GT(plan.buckets.size(), 1u);
  std::size_t prev_first = layout.layer_count();
  for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
    const auto& bucket = plan.buckets[b];
    ASSERT_FALSE(bucket.layers.empty());
    for (std::size_t i = 1; i < bucket.layers.size(); ++i) {
      EXPECT_LT(bucket.layers[i], bucket.layers[i - 1]);
    }
    EXPECT_LT(bucket.layers.front(), prev_first);
    prev_first = bucket.layers.front();
    EXPECT_EQ(bucket.tag_base,
              comm::bucket_tag_offset(static_cast<int>(b)));
    if (b + 1 < plan.buckets.size()) {
      EXPECT_GE(bucket.raw_bytes, kBucketBytes);
    }
  }

  // Pure function: a second build is identical.
  const BucketPlan again =
      build_bucket_plan(layout, engine.resolved(), kBucketBytes);
  ASSERT_EQ(again.buckets.size(), plan.buckets.size());
  EXPECT_EQ(again.bucket_of, plan.bucket_of);
  for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
    EXPECT_EQ(again.buckets[b].layers, plan.buckets[b].layers);
  }
}

TEST(BucketPlan, OverflowFoldsIntoLastTaggedBucket) {
  // More flushable layers than tag-space buckets: the plan must cap at
  // kMaxTagBuckets and keep every tag inside the compressed range.
  tensor::LayerLayout layout;
  for (int i = 0; i < comm::kMaxTagBuckets + 8; ++i) {
    layout.add_layer("w" + std::to_string(i), tensor::Shape{256, 16});
  }
  CgxEngine engine(layout, CompressionConfig::cgx_default(),
                   /*world=*/2);
  const BucketPlan plan =
      build_bucket_plan(layout, engine.resolved(), /*bucket_bytes=*/1);
  EXPECT_LE(plan.buckets.size(),
            static_cast<std::size_t>(comm::kMaxTagBuckets));
  EXPECT_GT(plan.buckets.back().layers.size(), 1u);
}

TEST(AsyncGradientEngine, OverlapBitIdenticalToInlineAcrossSchemesAndWorlds) {
  const auto layout = transformer_like_layout();
  AsyncOptions overlap_opts;
  overlap_opts.bucket_bytes = std::size_t{32} << 10;
  overlap_opts.overlap = true;
  AsyncOptions inline_opts = overlap_opts;
  inline_opts.overlap = false;

  for (auto scheme : {comm::ReductionScheme::ScatterReduceAllgather,
                      comm::ReductionScheme::Ring,
                      comm::ReductionScheme::Tree}) {
    for (int world : {2, 4, 8}) {
      auto overlapped = make_engine(layout, world, scheme, overlap_opts);
      auto inlined = make_engine(layout, world, scheme, inline_opts);
      const auto got = run_rounds(overlapped, layout, world, 2);
      const auto want = run_rounds(inlined, layout, world, 2);
      for (int r = 0; r < world; ++r) {
        const auto& g = got[static_cast<std::size_t>(r)];
        const auto& w = want[static_cast<std::size_t>(r)];
        ASSERT_EQ(g.size(), w.size());
        EXPECT_EQ(
            std::memcmp(g.data(), w.data(), g.size() * sizeof(float)), 0)
            << "scheme=" << comm::reduction_scheme_name(scheme)
            << " world=" << world << " rank=" << r;
        EXPECT_EQ(std::memcmp(g.data(), got[0].data(),
                              g.size() * sizeof(float)),
                  0)
            << "ranks diverged";
      }
    }
  }
}

TEST(AsyncGradientEngine, NotifyOrderDoesNotChangeResults) {
  // Layers announced front-to-back instead of back-to-front complete the
  // buckets in reverse plan order. The release frontier still submits them
  // in canonical plan order, and per-bucket RNG streams would keep the
  // maths identical even if it did not.
  const auto layout = transformer_like_layout();
  constexpr int kWorld = 4;
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  auto reverse_order = make_engine(
      layout, kWorld, comm::ReductionScheme::ScatterReduceAllgather, aopts);
  auto forward_order = make_engine(
      layout, kWorld, comm::ReductionScheme::ScatterReduceAllgather, aopts);
  const auto want = run_rounds(reverse_order, layout, kWorld, 2);

  comm::ShmTransport transport(kWorld);
  std::vector<std::vector<float>> got(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> grad;
    for (int round = 0; round < 2; ++round) {
      grad = rank_gradient(layout, comm.rank(), round);
      forward_order.begin_step(comm, grad, rng);
      for (std::size_t l = 0; l < layout.layer_count(); ++l) {
        forward_order.notify_layer_ready(comm.rank(), l);
      }
      forward_order.wait_all(comm.rank());
    }
    got[static_cast<std::size_t>(comm.rank())] = grad;
  });
  EXPECT_EQ(got, want);
}

TEST(AsyncGradientEngine, StepReportTimingFilled) {
  const auto layout = transformer_like_layout();
  constexpr int kWorld = 2;
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  auto engine = make_engine(
      layout, kWorld, comm::ReductionScheme::ScatterReduceAllgather, aopts);
  run_rounds(engine, layout, kWorld, 1);
  for (int r = 0; r < kWorld; ++r) {
    const StepReport& report = engine.last_step_report(r);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.attempts,
              static_cast<int>(engine.plan().total_submissions()));
    EXPECT_EQ(report.world, kWorld);  // the launch world, no movement
    EXPECT_EQ(report.epoch, 0u);
    EXPECT_EQ(report.departed, 0);
    EXPECT_EQ(report.joined, 0);
    EXPECT_GT(report.timing.comm_s, 0.0);
    EXPECT_GE(report.timing.compute_s, 0.0);
    EXPECT_GE(report.timing.exposed_comm_s, 0.0);
  }
}

TEST(AsyncGradientEngine, RebuildCarriesWarmWorkspacesAcrossPolicySwap) {
  // The adaptive-swap fix: a rebuild must not drop warmed collective
  // workspaces (inner engine) or the facade's double-buffered arenas.
  // scratch_high_water_bytes() is monotone per workspace and resets to
  // zero if one is destroyed and recreated — so equality across
  // rebuild+step proves the arenas survived.
  const auto layout = transformer_like_layout();
  constexpr int kWorld = 4;
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  auto engine = make_engine(
      layout, kWorld, comm::ReductionScheme::ScatterReduceAllgather, aopts);
  run_rounds(engine, layout, kWorld, 2);
  const std::size_t warmed = engine.scratch_high_water_bytes();
  ASSERT_GT(warmed, 0u);

  // No-op policy change: identical plan, identical scratch.
  engine.rebuild();
  EXPECT_EQ(engine.scratch_high_water_bytes(), warmed)
      << "rebuild dropped warmed workspaces";
  run_rounds(engine, layout, kWorld, 1);
  EXPECT_EQ(engine.scratch_high_water_bytes(), warmed);

  // Real policy change on one layer: that layer's compressors are
  // legitimately replaced (their scratch restarts from zero), but the
  // collective workspaces survive — so a post-rebuild step fits inside the
  // already-warmed arenas (2-bit payloads are smaller than the 4-bit ones
  // they replace) and the engine still reduces in lockstep.
  engine.inner().config().set_layer_quantization("embed.weight", 2, 128);
  engine.rebuild();
  const auto after = run_rounds(engine, layout, kWorld, 1);
  EXPECT_LE(engine.scratch_high_water_bytes(), warmed)
      << "rebuild recreated workspaces that should have carried over";
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(after[static_cast<std::size_t>(r)], after[0]);
  }
}

TEST(AsyncGradientEngine, RebuildIsTransparentToResults) {
  // A rebuild with an unchanged config must be invisible: same inputs and
  // seeds produce the same bits as a run without the rebuild, which means
  // compressor state (error-feedback residuals, warm starts) survived.
  const auto layout = transformer_like_layout();
  constexpr int kWorld = 2;
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  const auto scheme = comm::ReductionScheme::ScatterReduceAllgather;

  auto plain = make_engine(layout, kWorld, scheme, aopts);
  const auto want = run_rounds(plain, layout, kWorld, 2);

  auto rebuilt = make_engine(layout, kWorld, scheme, aopts);
  run_rounds(rebuilt, layout, kWorld, 1);
  rebuilt.rebuild();  // between steps, quiesced
  comm::ShmTransport transport(kWorld);
  std::vector<std::vector<float>> got(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    // Seed continuation: begin_step advances the parent rng exactly once
    // per step (split() is const), so skipping one u64 puts this stream
    // where the two-round run's round 1 found it.
    util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
    rng.next_u64();
    std::vector<float> grad = rank_gradient(layout, comm.rank(), 1);
    rebuilt.allreduce(comm, grad, rng);
    got[static_cast<std::size_t>(comm.rank())] = grad;
  });
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace cgx::core
