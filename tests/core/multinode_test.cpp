// End-to-end two-level collectives over the simulated multi-node fabric:
// all-rank bit-identity at cluster scale and on uneven nodes, the rails
// schedule's intra-node traffic bound, overlap↔inline equivalence of the
// streamed two-level schedule, fault injection on a rail link, a
// multi-seed delay soak, and an elastic crash that leaves the nodes uneven
// (comm/simnet.h, core/hierarchical.h, core/async_engine.h).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/fault.h"
#include "comm/membership.h"
#include "comm/simnet.h"
#include "comm/tagspace.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "core/hierarchical.h"
#include "tensor/tensor_ops.h"

namespace cgx::core {
namespace {

using namespace std::chrono_literals;

std::vector<float> rank_input(int rank, std::size_t d) {
  util::Rng rng(8800 + static_cast<std::uint64_t>(rank));
  std::vector<float> v(d);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

// `per_rank` compressors for each of n ranks (default: one per rank, the
// flat SRA's binding).
struct PerRank {
  std::vector<std::vector<std::unique_ptr<Compressor>>> state;
  PerRank(int n, const LayerCompression& cfg, std::size_t per_rank = 0) {
    if (per_rank == 0) per_rank = static_cast<std::size_t>(n);
    state.resize(static_cast<std::size_t>(n));
    for (auto& c : state) {
      for (std::size_t i = 0; i < per_rank; ++i) {
        c.push_back(make_compressor(cfg, 0));
      }
    }
  }
  std::vector<Compressor*> rank(int r) {
    std::vector<Compressor*> ptrs;
    for (auto& c : state[static_cast<std::size_t>(r)]) ptrs.push_back(c.get());
    return ptrs;
  }
};

std::vector<int> grouped_node_of(int world, int ranks_per_node) {
  std::vector<int> node_of(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    node_of[static_cast<std::size_t>(r)] = r / ranks_per_node;
  }
  return node_of;
}

// Block placement with the given node sizes: node k holds sizes[k] ranks.
std::vector<int> sized_node_of(const std::vector<int>& sizes) {
  std::vector<int> node_of;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    node_of.insert(node_of.end(), static_cast<std::size_t>(sizes[k]),
                   static_cast<int>(k));
  }
  return node_of;
}

struct RailsRun {
  std::vector<std::vector<float>> results;  // per rank
  std::vector<std::size_t> intra_sent;      // bytes each rank sent in-node
};

// One quantized hierarchical allreduce of rank_input over SimNet. 8-bit
// QSGD keeps the result's error well below that of an all-zero answer
// (4-bit/128 sits near relative error 1.7 on these Gaussian inputs, flat
// SRA included), so a wrong reduction cannot hide in the noise.
RailsRun run_rails(const std::vector<int>& node_of, std::size_t d) {
  const int world = static_cast<int>(node_of.size());
  LayerCompression qsgd;
  qsgd.bits = 8;
  PerRank compressors(world, qsgd, hierarchical_compressor_count(node_of));
  HierarchicalOptions options;
  options.node_of = node_of;
  comm::ShmTransport shm(world);
  comm::SimNetTransport net(shm, comm::Topology(node_of),
                            comm::SimNetParams{});
  RailsRun run;
  run.results.resize(static_cast<std::size_t>(world));
  comm::run_world(net, [&](comm::Comm& comm) {
    auto data = rank_input(comm.rank(), d);
    util::Rng rng(70 + static_cast<std::uint64_t>(comm.rank()));
    auto chunks = compressors.rank(comm.rank());
    hierarchical_allreduce(comm, data, chunks, rng, options);
    run.results[static_cast<std::size_t>(comm.rank())] = std::move(data);
  });
  run.intra_sent.assign(static_cast<std::size_t>(world), 0);
  for (int a = 0; a < world; ++a) {
    for (int b = 0; b < world; ++b) {
      if (a != b && node_of[static_cast<std::size_t>(a)] ==
                        node_of[static_cast<std::size_t>(b)]) {
        run.intra_sent[static_cast<std::size_t>(a)] +=
            net.recorder().bytes_between(a, b);
      }
    }
  }
  return run;
}

TEST(Multinode, HierarchicalOverSimNetBitIdenticalAcrossRanksAndRuns) {
  // 2 nodes x 8 ranks over the simulated 10 Gb/s fabric: every rank lands
  // the same bytes, and a fresh identically-seeded run reproduces both the
  // results and the modelled epoch exactly.
  constexpr int kWorld = 16;
  constexpr std::size_t kD = 4096;
  LayerCompression qsgd;
  HierarchicalOptions options;
  options.node_of = grouped_node_of(kWorld, 8);

  const auto run_once = [&](std::vector<std::vector<float>>* results) {
    PerRank compressors(kWorld, qsgd);
    comm::ShmTransport shm(kWorld);
    comm::SimNetTransport net(shm, comm::Topology(options.node_of),
                              comm::SimNetParams{});
    results->assign(static_cast<std::size_t>(kWorld), {});
    std::mutex mutex;
    comm::run_world(net, [&](comm::Comm& comm) {
      auto data = rank_input(comm.rank(), kD);
      util::Rng rng(50 + static_cast<std::uint64_t>(comm.rank()));
      auto chunks = compressors.rank(comm.rank());
      hierarchical_allreduce(comm, data, chunks, rng, options);
      std::lock_guard<std::mutex> lock(mutex);
      (*results)[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    return net.clock().elapsed_ns();
  };

  std::vector<std::vector<float>> first, second;
  const std::uint64_t elapsed_first = run_once(&first);
  const std::uint64_t elapsed_second = run_once(&second);
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)], first[0]) << "rank " << r;
  }
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(second[static_cast<std::size_t>(r)],
              first[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
  EXPECT_GT(elapsed_first, 0u);
  EXPECT_EQ(elapsed_first, elapsed_second);
}

TEST(Multinode, RailsBitIdenticalOnUnevenNodes) {
  // Uneven nodes make a short node's ranks own several shards (local rank
  // s mod m owns shard s): {4,4,4,3} is a 4x4 cluster after one crash,
  // and {3,1,2} puts the single-rank node on every rail. All ranks must
  // still land the same bytes, and those bytes must be the sum: relative
  // error 0.09 here (flat SRA on one rank per node: 0.10), where dropping
  // one rank's contribution costs at least 0.26.
  constexpr std::size_t kD = 3001;
  for (const std::vector<int>& sizes :
       {std::vector<int>{4, 4, 4, 3}, std::vector<int>{3, 1, 2}}) {
    const std::vector<int> node_of = sized_node_of(sizes);
    const RailsRun run = run_rails(node_of, kD);
    std::vector<float> want(kD, 0.0f);
    for (std::size_t r = 0; r < node_of.size(); ++r) {
      tensor::add_inplace(want, rank_input(static_cast<int>(r), kD));
      EXPECT_EQ(run.results[r], run.results[0])
          << "world " << node_of.size() << " rank " << r;
    }
    std::vector<float> diff(kD);
    tensor::sub(run.results[0], want, diff);
    EXPECT_LT(tensor::l2_norm(diff), 0.2 * tensor::l2_norm(want))
        << "world " << node_of.size();
  }
}

TEST(Multinode, RailsIntraNodeTrafficWithinReduceScatterPlusAllgather) {
  // The bound that keeps a leader bottleneck from coming back: per
  // allreduce no rank sends more than 2(m-1)/m of the layer inside its
  // node — its reduce-scatter share out plus its allgather share back —
  // where a node leader used to send (m-1) whole layers on the broadcast
  // alone.
  constexpr int kPerNode = 4;
  constexpr std::size_t kD = 4096;  // divisible by the shard count
  const RailsRun run = run_rails(grouped_node_of(16, kPerNode), kD);
  const std::size_t bound =
      2 * (kPerNode - 1) * kD * sizeof(float) / kPerNode;
  for (std::size_t r = 0; r < run.intra_sent.size(); ++r) {
    EXPECT_LE(run.intra_sent[r], bound) << "rank " << r;
    EXPECT_GT(run.intra_sent[r], 0u) << "rank " << r;
  }
}

TEST(TwoLevelStreaming, OverlapBitIdenticalToInline) {
  // The streamed two-level path — buckets launched on comm lanes as the
  // backward produces them, with two lanes overlapping one bucket's
  // reduce-scatter with another's inter-node exchange — must compute
  // exactly what the synchronous submission-order path computes.
  constexpr int kWorld = 8;
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{1500, 32});
  layout.add_layer("block0.attn.weight", tensor::Shape{32, 160});
  layout.add_layer("block0.attn.bias", tensor::Shape{160});
  layout.add_layer("block0.ffn.weight", tensor::Shape{32, 224});
  layout.add_layer("head.weight", tensor::Shape{32, 80});

  const auto run_mode = [&](bool overlap, int lanes) {
    EngineOptions options;
    options.node_of = grouped_node_of(kWorld, 4);
    AsyncOptions aopts;
    aopts.bucket_bytes = std::size_t{32} << 10;
    aopts.overlap = overlap;
    aopts.comm_lanes = lanes;
    AsyncGradientEngine engine(
        std::make_unique<CgxEngine>(layout, CompressionConfig::cgx_default(),
                                    kWorld, options),
        aopts);
    comm::ShmTransport transport(kWorld);
    std::vector<std::vector<float>> result(static_cast<std::size_t>(kWorld));
    comm::run_world(transport, [&](comm::Comm& comm) {
      util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<float> grad;
      for (int round = 0; round < 2; ++round) {
        util::Rng grad_rng(4000 + 100 * static_cast<std::uint64_t>(round) +
                           static_cast<std::uint64_t>(comm.rank()));
        grad.resize(layout.total_numel());
        for (auto& v : grad) v = static_cast<float>(grad_rng.next_gaussian());
        engine.allreduce(comm, grad, rng);
      }
      result[static_cast<std::size_t>(comm.rank())] = grad;
    });
    return result;
  };

  const auto inlined = run_mode(/*overlap=*/false, /*lanes=*/1);
  for (int lanes : {1, 2}) {
    const auto streamed = run_mode(/*overlap=*/true, lanes);
    for (int r = 0; r < kWorld; ++r) {
      EXPECT_EQ(streamed[static_cast<std::size_t>(r)],
                inlined[static_cast<std::size_t>(r)])
          << "lanes " << lanes << " rank " << r;
      EXPECT_EQ(streamed[static_cast<std::size_t>(r)], streamed[0])
          << "lanes " << lanes << " rank " << r;
    }
  }
}

TEST(MultinodeFault, DroppedLeaderLinkRaisesTimeoutNamingIt) {
  // Every frame from local rank 0 of node 2 (rank 4) to local rank 0 of
  // node 0 (rank 0) vanishes on the simulated inter-node link of rail 0:
  // rank 0's rail drain takes rank 2's contribution by arrival and must
  // then surface a TimeoutError that names exactly the starved link,
  // within twice the configured deadline.
  constexpr int kWorld = 6;
  constexpr auto kDeadline = 150ms;
  const std::vector<int> node_of = {0, 0, 1, 1, 2, 2};

  comm::ShmTransport shm(kWorld);
  comm::FaultInjector injector(/*seed=*/3, kWorld);
  comm::FaultSpec drop;
  drop.drop_prob = 1.0;
  injector.set_link(4, 0, drop);
  comm::FaultyTransport faulty(shm, injector);
  comm::SimNetTransport net(faulty, comm::Topology(node_of),
                            comm::SimNetParams{});
  comm::CommPolicy pol;
  pol.timeout = kDeadline;
  // Drops bite the CRC-verified copy-out path, and the retry budget must
  // outlast the deadline so the failure surfaces as a *timeout* on the
  // starved link rather than a retries-exhausted checksum error.
  pol.checksums = true;
  pol.max_retries = 1 << 20;
  net.set_policy(pol);

  LayerCompression none;
  none.method = Method::None;
  PerRank compressors(kWorld, none);
  HierarchicalOptions options;
  options.node_of = node_of;

  try {
    comm::run_world(net, [&](comm::Comm& comm) {
      auto data = rank_input(comm.rank(), 512);
      util::Rng rng(9 + static_cast<std::uint64_t>(comm.rank()));
      auto chunks = compressors.rank(comm.rank());
      hierarchical_allreduce(comm, data, chunks, rng, options);
    });
    FAIL() << "expected WorkerError";
  } catch (const comm::WorkerError& e) {
    EXPECT_EQ(e.rank, 0);  // the starved rank is the lowest failing rank
    ASSERT_TRUE(e.original);
    try {
      std::rethrow_exception(e.original);
    } catch (const comm::TimeoutError& t) {
      EXPECT_EQ(t.src, 4);  // the remote rail member...
      EXPECT_EQ(t.dst, 0);  // ...starving this one
      EXPECT_EQ(t.tag, comm::hier_inter_scatter_tag(0));
      EXPECT_LT(t.waited, 2 * kDeadline);
    }
  }
}

TEST(MultinodeFault, DelayedFabricSoakBitIdenticalAcrossSeeds) {
  // Eight differently-seeded delay patterns on every link: wall-clock
  // jitter reshuffles thread timing but can never change the reduced bytes
  // or the modelled virtual time.
  constexpr int kWorld = 8;
  constexpr std::size_t kD = 2048;
  LayerCompression qsgd;
  HierarchicalOptions options;
  options.node_of = grouped_node_of(kWorld, 4);

  const auto run_once = [&](comm::FaultInjector* injector,
                            std::uint64_t* elapsed_ns) {
    PerRank compressors(kWorld, qsgd);
    comm::ShmTransport shm(kWorld);
    comm::FaultInjector no_faults(/*seed=*/1, kWorld);
    comm::FaultyTransport faulty(shm, injector ? *injector : no_faults);
    comm::SimNetTransport net(faulty, comm::Topology(options.node_of),
                              comm::SimNetParams{});
    std::vector<std::vector<float>> results(static_cast<std::size_t>(kWorld));
    std::mutex mutex;
    comm::run_world(net, [&](comm::Comm& comm) {
      auto data = rank_input(comm.rank(), kD);
      util::Rng rng(50 + static_cast<std::uint64_t>(comm.rank()));
      auto chunks = compressors.rank(comm.rank());
      hierarchical_allreduce(comm, data, chunks, rng, options);
      std::lock_guard<std::mutex> lock(mutex);
      results[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    *elapsed_ns = net.clock().elapsed_ns();
    return results;
  };

  std::uint64_t clean_elapsed = 0;
  const auto clean = run_once(nullptr, &clean_elapsed);
  for (int r = 1; r < kWorld; ++r) {
    ASSERT_EQ(clean[static_cast<std::size_t>(r)], clean[0]) << "rank " << r;
  }

  comm::FaultSpec jitter;
  jitter.delay_prob = 0.5;
  jitter.delay = 200us;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    comm::FaultInjector injector(seed, kWorld);
    injector.set_all_links(jitter);
    std::uint64_t elapsed = 0;
    const auto soaked = run_once(&injector, &elapsed);
    for (int r = 0; r < kWorld; ++r) {
      EXPECT_EQ(soaked[static_cast<std::size_t>(r)],
                clean[static_cast<std::size_t>(r)])
          << "seed " << seed << " rank " << r;
    }
    EXPECT_EQ(elapsed, clean_elapsed) << "seed " << seed;
  }
}

TEST(Multinode, EngineOverSimNetDeterministic) {
  // Full engine path (filtered packet + compressed hierarchical layers)
  // over the simulated fabric: ranks agree, and a fresh run reproduces the
  // gradient and the modelled time bit for bit.
  constexpr int kWorld = 8;
  tensor::LayerLayout layout;
  layout.add_layer("w1", tensor::Shape{256, 64});
  layout.add_layer("b1", tensor::Shape{64});
  layout.add_layer("w2", tensor::Shape{64, 48});
  EngineOptions options;
  options.node_of = grouped_node_of(kWorld, 4);

  const auto run_once = [&](std::vector<float>* rank0,
                            std::uint64_t* elapsed_ns) {
    CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld,
                     options);
    comm::ShmTransport shm(kWorld);
    comm::SimNetTransport net(shm, comm::Topology(options.node_of),
                              comm::SimNetParams{});
    std::vector<std::vector<float>> results(static_cast<std::size_t>(kWorld));
    std::mutex mutex;
    comm::run_world(net, [&](comm::Comm& comm) {
      auto grad = rank_input(300 + comm.rank(), layout.total_numel());
      util::Rng rng(70 + static_cast<std::uint64_t>(comm.rank()));
      engine.allreduce(comm, grad, rng);
      std::lock_guard<std::mutex> lock(mutex);
      results[static_cast<std::size_t>(comm.rank())] = std::move(grad);
    });
    for (int r = 1; r < kWorld; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0])
          << "rank " << r;
    }
    *rank0 = std::move(results[0]);
    *elapsed_ns = net.clock().elapsed_ns();
  };

  std::vector<float> first, second;
  std::uint64_t elapsed_first = 0, elapsed_second = 0;
  run_once(&first, &elapsed_first);
  run_once(&second, &elapsed_second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(elapsed_first, elapsed_second);
  EXPECT_GT(elapsed_first, 0u);
}

TEST(MultinodeElastic, CrashLeavesUnevenNodesAndSurvivorsInLockstep) {
  // A rank of a 4x4 SimNet cluster crashes mid-run under CgxEngine's
  // elastic recovery: the survivors re-shard onto nodes of {4,3,4,4}, so
  // the short node's ranks take over its lost shard and rail, and every
  // survivor must finish every step with the same bytes.
  constexpr int kWorld = 16;
  constexpr int kRounds = 4;
  constexpr int kCrashRank = 6;
  tensor::LayerLayout layout;
  layout.add_layer("w0", tensor::Shape{64, 24});
  layout.add_layer("w0.bias", tensor::Shape{24});
  layout.add_layer("w1", tensor::Shape{24, 40});

  const auto run = [&](std::uint64_t crash_op, std::uint64_t* crash_rank_ops,
                       std::vector<std::vector<float>>* grads,
                       comm::Membership& membership, CgxEngine& engine) {
    comm::ShmTransport shm(kWorld);
    comm::SimNetTransport net(shm, comm::Topology(engine.options().node_of),
                              comm::SimNetParams{});
    comm::FaultInjector injector(/*seed=*/7, kWorld);
    if (crash_op > 0) injector.schedule_crash(kCrashRank, crash_op);
    injector.enable_op_counting();
    comm::FaultyTransport faulty(net, injector);
    comm::CommPolicy pol;
    pol.timeout = 100ms;
    pol.checksums = true;
    faulty.set_policy(pol);
    grads->assign(static_cast<std::size_t>(kWorld), {});
    comm::run_world(
        faulty,
        [&](comm::Comm& comm) {
          const int g = comm.global_rank();
          util::Rng rng(6000 + static_cast<std::uint64_t>(g));
          std::vector<float> grad;
          for (int round = 0; round < kRounds; ++round) {
            util::Rng grad_rng(4000 + 100 * static_cast<std::uint64_t>(round) +
                               static_cast<std::uint64_t>(g));
            grad.resize(layout.total_numel());
            for (auto& v : grad) {
              v = static_cast<float>(grad_rng.next_gaussian());
            }
            engine.allreduce(comm, grad, rng);
            EXPECT_TRUE(engine.last_step_report(g).ok) << "rank " << g;
          }
          (*grads)[static_cast<std::size_t>(g)] = grad;
        },
        comm::WorldOptions{&membership});
    *crash_rank_ops = injector.rank_ops(kCrashRank);
  };
  const auto make_engine = [&] {
    EngineOptions options;
    options.node_of = grouped_node_of(kWorld, 4);
    options.scheme = comm::ReductionScheme::Ring;  // fixed packet add order
    options.recovery_timeout = 2000ms;
    return std::make_unique<CgxEngine>(
        layout, CompressionConfig::cgx_default(), kWorld, options);
  };

  // A clean run counts the crashing rank's transport ops; the crash then
  // strikes halfway through them, mid-step.
  std::uint64_t clean_ops = 0;
  std::vector<std::vector<float>> grads;
  {
    comm::Membership membership(kWorld);
    auto engine = make_engine();
    run(/*crash_op=*/0, &clean_ops, &grads, membership, *engine);
  }
  ASSERT_GT(clean_ops, 4u);

  comm::Membership membership(kWorld);
  auto engine = make_engine();
  std::uint64_t ops = 0;
  run(clean_ops / 2, &ops, &grads, membership, *engine);
  EXPECT_TRUE(membership.is_failed(kCrashRank));
  EXPECT_EQ(membership.active_count(), kWorld - 1);
  EXPECT_EQ(engine->active_world(), kWorld - 1);
  int reference = -1;
  for (int r = 0; r < kWorld; ++r) {
    if (r == kCrashRank) continue;
    const auto& mine = grads[static_cast<std::size_t>(r)];
    ASSERT_EQ(mine.size(), layout.total_numel())
        << "survivor " << r << " did not finish every step";
    if (reference < 0) {
      reference = r;
      continue;
    }
    EXPECT_EQ(std::memcmp(mine.data(),
                          grads[static_cast<std::size_t>(reference)].data(),
                          mine.size() * sizeof(float)),
              0)
        << "survivors " << reference << " and " << r << " diverged";
  }
}

}  // namespace
}  // namespace cgx::core
