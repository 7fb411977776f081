// Zero-steady-state-allocation harness for the streaming engine
// (`ctest -L alloc`, own binary: one operator-new override per binary).
//
// After warm-up — ring slabs at final size, both per-rank arenas and the
// packet workspace grown, comm threads spawned, report vectors at capacity
// — a full streamed step (begin_step, per-layer notify, bucket collectives
// on the comm threads, wait_all) must make zero heap allocations anywhere
// in the process. This is the async analogue of the transport-level
// guarantee in tests/comm/transport_alloc_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/async_engine.h"
#include "core/dep_engine.h"
#include "comm/simnet.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "util/arena.h"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace cgx::core {
namespace {

TEST(AsyncEngineAlloc, StreamedStepAllocationFreeAfterWarmup) {
  constexpr int kWorld = 4;
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{2000, 32});
  layout.add_layer("block0.attn.weight", tensor::Shape{32, 96});
  layout.add_layer("block0.attn.bias", tensor::Shape{96});
  layout.add_layer("block0.ffn.weight", tensor::Shape{32, 128});
  layout.add_layer("head.weight", tensor::Shape{32, 50});

  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  AsyncGradientEngine engine(
      std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                  kWorld),
      aopts);

  comm::ShmTransport transport(kWorld);
  std::atomic<std::size_t> hwm_before{0};
  std::atomic<std::size_t> hwm_after{0};
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    util::Rng rng(9000 + static_cast<std::uint64_t>(rank));
    util::Rng grad_rng(4000 + static_cast<std::uint64_t>(rank));
    std::vector<float> grad(layout.total_numel());
    const auto step = [&] {
      // Refill in place — gradient generation must not allocate either.
      for (auto& v : grad) v = static_cast<float>(grad_rng.next_gaussian());
      engine.begin_step(comm, grad, rng);
      for (std::size_t l = layout.layer_count(); l-- > 0;) {
        engine.notify_layer_ready(rank, l);
      }
      engine.wait_all(rank);
    };
    for (int i = 0; i < 3; ++i) step();  // warm-up

    comm.barrier();
    if (rank == 0) {
      hwm_before.store(engine.scratch_high_water_bytes());
      g_allocs.store(0);
      g_counting.store(true);
    }
    comm.barrier();
    for (int i = 0; i < 5; ++i) step();  // counted steady-state window
    comm.barrier();
    if (rank == 0) {
      g_counting.store(false);
      hwm_after.store(engine.scratch_high_water_bytes());
    }
  });

  EXPECT_EQ(g_allocs.load(), 0u)
      << "heap allocations observed in the steady-state streamed step";
  EXPECT_GT(hwm_before.load(), 0u);
  EXPECT_EQ(hwm_before.load(), hwm_after.load())
      << "collective workspaces grew after warm-up";
  // The workspaces are not merely allocation-free — their slots must have
  // been carved from the per-rank arenas (64-byte aligned, NUMA-homed),
  // not the heap. The arenas having absorbed collective-scale storage is
  // the observable proof.
  // (The slack factor covers per-rank imbalance and the slivers of scratch
  // that legitimately stay on the heap, e.g. report vectors.)
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_GE(util::rank_arena(r).allocated_bytes(),
              hwm_before.load() / (4 * kWorld))
        << "rank " << r << " workspace slots are not arena-backed";
  }
}

TEST(AsyncEngineAlloc, StreamedStepAllocationFreeAcrossPolicyHotSwap) {
  // The adaptive controller's contract (DESIGN.md §5j): a policy hot-swap
  // re-plans at the rebuild boundary — where allocation is allowed — but
  // the steady state AFTER the swap must be allocation-free again, for the
  // swapped-in compressor family too (here DGC top-k, whose momentum and
  // velocity stores and selection scratch are arena-backed). One warmed
  // step after the swap grows the new state; the counted window follows.
  constexpr int kWorld = 4;
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{2000, 32});
  layout.add_layer("block0.attn.weight", tensor::Shape{32, 96});
  layout.add_layer("block0.attn.bias", tensor::Shape{96});
  layout.add_layer("block0.ffn.weight", tensor::Shape{32, 128});
  layout.add_layer("head.weight", tensor::Shape{32, 50});

  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  AsyncGradientEngine engine(
      std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                  kWorld),
      aopts);

  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    util::Rng rng(9500 + static_cast<std::uint64_t>(rank));
    util::Rng grad_rng(4500 + static_cast<std::uint64_t>(rank));
    std::vector<float> grad(layout.total_numel());
    const auto step = [&] {
      for (auto& v : grad) v = static_cast<float>(grad_rng.next_gaussian());
      engine.begin_step(comm, grad, rng);
      for (std::size_t l = layout.layer_count(); l-- > 0;) {
        engine.notify_layer_ready(rank, l);
      }
      engine.wait_all(rank);
    };
    for (int i = 0; i < 3; ++i) step();  // warm-up on the initial policy

    // The hot-swap: the embedding moves to DGC top-k, everything else keeps
    // its warmed compressors (differential rebuild).
    comm.barrier();
    if (rank == 0) {
      CompressionConfig& config = engine.inner().config();
      LayerCompression cfg;
      cfg.method = Method::TopK;
      cfg.topk_ratio = 0.01;
      cfg.dgc = true;
      config.set_layer_exact("embed.weight", cfg);
      engine.rebuild();
    }
    comm.barrier();
    step();  // one post-swap step grows the DGC state to final size
    comm.barrier();
    if (rank == 0) {
      g_allocs.store(0);
      g_counting.store(true);
    }
    comm.barrier();
    for (int i = 0; i < 5; ++i) step();  // counted steady-state window
    comm.barrier();
    if (rank == 0) g_counting.store(false);
  });

  EXPECT_EQ(g_allocs.load(), 0u)
      << "heap allocations observed in the post-hot-swap steady state";
}

TEST(AsyncEngineAlloc, DagExecutorStreamedStepAllocationFreeAfterWarmup) {
  // The DAG-executor path: per-rank DepEngine replay on a pool drives the
  // notifies (from worker threads), the engine runs two comm lanes. After
  // warm-up — recorded op graph, raw task ring at size, lane queues and
  // arenas grown, timing vectors at capacity — the whole streamed step
  // must still make zero heap allocations.
  constexpr int kWorld = 2;
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{2000, 32});
  layout.add_layer("block0.attn.weight", tensor::Shape{32, 96});
  layout.add_layer("block0.attn.bias", tensor::Shape{96});
  layout.add_layer("block0.ffn.weight", tensor::Shape{32, 128});
  layout.add_layer("head.weight", tensor::Shape{32, 50});

  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  aopts.comm_lanes = 2;
  AsyncGradientEngine engine(
      std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                  kWorld),
      aopts);

  comm::ShmTransport transport(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    util::ThreadPool pool(3);
    DepEngine dag(&pool);
    // One op per layer, independent variables: completions land from
    // multiple workers in scrambled order, exactly like a branchy model.
    std::vector<DepEngine::VarId> lvars;
    for (std::size_t l = 0; l < layout.layer_count(); ++l) {
      lvars.push_back(dag.new_var());
    }
    for (std::size_t l = layout.layer_count(); l-- > 0;) {
      const DepEngine::VarId w = lvars[l];
      dag.push([] {}, std::span<const DepEngine::VarId>{},
               std::span<const DepEngine::VarId>(&w, 1));
    }
    dag.set_on_complete([&](DepEngine::OpId id) {
      engine.notify_layer_ready(
          rank, layout.layer_count() - 1 - static_cast<std::size_t>(id));
    });

    util::Rng rng(9200 + static_cast<std::uint64_t>(rank));
    util::Rng grad_rng(4200 + static_cast<std::uint64_t>(rank));
    std::vector<float> grad(layout.total_numel());
    const auto step = [&] {
      for (auto& v : grad) v = static_cast<float>(grad_rng.next_gaussian());
      engine.begin_step(comm, grad, rng);
      dag.run();
      engine.wait_all(rank);
    };
    for (int i = 0; i < 3; ++i) step();  // warm-up

    comm.barrier();
    if (rank == 0) {
      g_allocs.store(0);
      g_counting.store(true);
    }
    comm.barrier();
    for (int i = 0; i < 5; ++i) step();  // counted steady-state window
    comm.barrier();
    if (rank == 0) g_counting.store(false);
  });

  EXPECT_EQ(g_allocs.load(), 0u)
      << "heap allocations observed in the steady-state DAG-executor step";
}

TEST(AsyncEngineAlloc, TwoLevelStreamedStepAllocationFreeAfterWarmup) {
  // Same contract on the two-level path over the simulated fabric: after
  // warm-up the hierarchical schedule (member posts, leader folds, the
  // compressed leader SRA with re-compression, broadcast) plus SimNet's
  // arrival-stamp FIFOs must all run out of grown storage — zero heap
  // allocations per streamed step.
  constexpr int kWorld = 4;
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{2000, 32});
  layout.add_layer("block0.attn.weight", tensor::Shape{32, 96});
  layout.add_layer("block0.attn.bias", tensor::Shape{96});
  layout.add_layer("block0.ffn.weight", tensor::Shape{32, 128});
  layout.add_layer("head.weight", tensor::Shape{32, 50});

  EngineOptions eopts;
  eopts.node_of = {0, 0, 1, 1};
  AsyncOptions aopts;
  aopts.bucket_bytes = std::size_t{32} << 10;
  AsyncGradientEngine engine(
      std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                  kWorld, eopts),
      aopts);

  comm::ShmTransport shm(kWorld);
  comm::SimNetTransport net(shm, comm::Topology(eopts.node_of),
                            comm::SimNetParams{});
  std::atomic<std::size_t> hwm_before{0};
  std::atomic<std::size_t> hwm_after{0};
  comm::run_world(net, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    util::Rng rng(9100 + static_cast<std::uint64_t>(rank));
    util::Rng grad_rng(4100 + static_cast<std::uint64_t>(rank));
    std::vector<float> grad(layout.total_numel());
    const auto step = [&] {
      for (auto& v : grad) v = static_cast<float>(grad_rng.next_gaussian());
      engine.begin_step(comm, grad, rng);
      for (std::size_t l = layout.layer_count(); l-- > 0;) {
        engine.notify_layer_ready(rank, l);
      }
      engine.wait_all(rank);
    };
    for (int i = 0; i < 3; ++i) step();  // warm-up

    comm.barrier();
    if (rank == 0) {
      hwm_before.store(engine.scratch_high_water_bytes());
      g_allocs.store(0);
      g_counting.store(true);
    }
    comm.barrier();
    for (int i = 0; i < 5; ++i) step();  // counted steady-state window
    comm.barrier();
    if (rank == 0) {
      g_counting.store(false);
      hwm_after.store(engine.scratch_high_water_bytes());
    }
  });

  EXPECT_EQ(g_allocs.load(), 0u)
      << "heap allocations observed in the steady-state two-level step";
  EXPECT_GT(hwm_before.load(), 0u);
  EXPECT_EQ(hwm_before.load(), hwm_after.load())
      << "collective workspaces grew after warm-up";
}

}  // namespace
}  // namespace cgx::core
