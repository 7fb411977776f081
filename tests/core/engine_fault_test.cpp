// Graceful-degradation tests for CgxEngine: the fault-soak matrix (lossy
// wires must never change the maths) and the round-retry recovery protocol
// (a failed round is rolled back, the fabric quiesced, and the step retried
// with an honest StepReport).
#include "core/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "comm/fault.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "tensor/tensor_ops.h"

namespace cgx::core {
namespace {

using namespace std::chrono_literals;

tensor::LayerLayout small_transformer_layout() {
  tensor::LayerLayout layout;
  layout.add_layer("embed.weight", tensor::Shape{400, 16});
  layout.add_layer("block0.attn.weight", tensor::Shape{16, 48});
  layout.add_layer("block0.attn.bias", tensor::Shape{48});
  layout.add_layer("block0.ln.weight", tensor::Shape{16});
  layout.add_layer("head.weight", tensor::Shape{16, 32});
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

// Runs `rounds` engine steps on every rank of `transport` and returns each
// rank's final reduced buffer, so runs can be compared bit-for-bit.
std::vector<std::vector<float>> run_engine_rounds(
    const tensor::LayerLayout& layout, comm::Transport& transport,
    int world, int rounds, const EngineOptions& options) {
  CgxEngine engine(layout, CompressionConfig::cgx_default(), world, options);
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

TEST(EngineFaultSoak, LossyWiresNeverChangeTheMathsAcrossSeeds) {
  constexpr int kWorld = 4;
  constexpr int kRounds = 3;
  const auto layout = small_transformer_layout();

  // Ring reduction has a fixed arithmetic order, so the fault-free and the
  // faulted runs are comparable bit-for-bit (arrival-order schemes would
  // legitimately reassociate the sum under injected delays).
  EngineOptions options;
  options.scheme = comm::ReductionScheme::Ring;

  comm::CommPolicy pol;
  pol.checksums = true;
  pol.max_retries = 30;
  pol.backoff = 1us;

  comm::NcclTransport clean(kWorld, /*chunk_bytes=*/2048);
  clean.set_policy(pol);
  const auto want =
      run_engine_rounds(layout, clean, kWorld, kRounds, options);

  comm::FaultSpec spec;
  spec.drop_prob = 0.05;
  spec.corrupt_prob = 0.05;
  spec.delay_prob = 0.10;
  spec.delay = 200us;

  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    comm::NcclTransport inner(kWorld, /*chunk_bytes=*/2048);
    comm::FaultInjector injector(seed, kWorld);
    injector.set_all_links(spec);
    comm::FaultyTransport faulty(inner, injector);
    faulty.set_policy(pol);
    const auto got =
        run_engine_rounds(layout, faulty, kWorld, kRounds, options);
    for (int r = 0; r < kWorld; ++r) {
      const auto& g = got[static_cast<std::size_t>(r)];
      const auto& w = want[static_cast<std::size_t>(r)];
      ASSERT_EQ(g.size(), w.size());
      EXPECT_EQ(std::memcmp(g.data(), w.data(), g.size() * sizeof(float)), 0)
          << "seed " << seed << " rank " << r
          << ": injected wire faults changed the reduced gradient";
    }
    total_faults += faulty.health().total_retransmits() +
                    faulty.health().total_wire_drops();
  }
  // The soak is vacuous unless the wire actually misbehaved.
  EXPECT_GT(total_faults, 0u);
}

TEST(EngineRoundRetry, FailedRoundIsRolledBackRetriedAndReported) {
  constexpr int kWorld = 2;
  constexpr int kRounds = 3;
  const auto layout = small_transformer_layout();

  EngineOptions options;
  options.scheme = comm::ReductionScheme::Ring;

  comm::ShmTransport reference_transport(kWorld);
  const auto want = run_engine_rounds(layout, reference_transport, kWorld,
                                      kRounds, options);

  comm::FaultInjector injector(/*seed=*/1, kWorld);
  injector.schedule_round_failure(/*round=*/1);
  options.max_round_retries = 1;
  options.injector = &injector;

  comm::ShmTransport transport(kWorld);
  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld, options);
  std::vector<std::vector<float>> got(kWorld);
  comm::run_world(transport, [&](comm::Comm& comm) {
    util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> grad;
    for (int round = 0; round < kRounds; ++round) {
      grad = rank_gradient(layout, comm.rank(), round);
      engine.allreduce(comm, grad, rng);
      const StepReport& report = engine.last_step_report(comm.rank());
      EXPECT_TRUE(report.ok);
      if (round == 1) {
        // The scheduled failure struck attempt 0; the retry recovered.
        EXPECT_EQ(report.attempts, 2);
        EXPECT_EQ(report.retries, 1);
        ASSERT_EQ(report.incidents.size(), 1u);
        EXPECT_EQ(report.incidents[0].src, -1);
        EXPECT_EQ(report.incidents[0].dst, comm.rank());
        EXPECT_NE(report.incidents[0].what.find("synthetic"),
                  std::string::npos);
      } else {
        EXPECT_EQ(report.attempts, 1);
        EXPECT_EQ(report.retries, 0);
        EXPECT_TRUE(report.incidents.empty());
      }
    }
    got[static_cast<std::size_t>(comm.rank())] = grad;
  });

  // The retried round restarted from the pre-round snapshot, so the final
  // state matches a run that never failed — bit for bit.
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(std::memcmp(got[static_cast<std::size_t>(r)].data(),
                          want[static_cast<std::size_t>(r)].data(),
                          want[static_cast<std::size_t>(r)].size() *
                              sizeof(float)),
              0)
        << "rank " << r;
  }
}

TEST(EngineRoundRetry, CorruptLastReceiveOnAFixedWorldIsRetriedNotFatal) {
  // A corrupt frame on rank 1's LAST receive of a round used to leave rank 0
  // already returned from the round, so rank 1's retry agreement found no
  // peer and the step died. The commit fence makes the retry decision
  // collective: rank 0 waits at the fence, times out, and both ranks retry
  // the same round. Every retried round restarts from its snapshot with a
  // deterministic codec (fp16), so the result must match a fault-free run
  // bit for bit.
  constexpr int kWorld = 2;
  constexpr int kRounds = 40;
  const auto layout = small_transformer_layout();
  CompressionConfig config = CompressionConfig::cgx_default();
  LayerCompression fp16;
  fp16.method = Method::Fp16;
  config.set_default(fp16);

  EngineOptions options;
  options.scheme = comm::ReductionScheme::ScatterReduceAllgather;
  options.max_round_retries = 8;
  // Generous agreement budget: a missed agreement deadline is fatal, so it
  // must absorb scheduling noise on a loaded (or sanitized) test machine.
  options.recovery_timeout = 2000ms;

  comm::CommPolicy pol;
  pol.timeout = 40ms;
  pol.checksums = true;
  pol.max_retries = 0;  // a corrupt frame surfaces as a CommError at once

  const auto run = [&](comm::Transport& transport, int* retries) {
    CgxEngine engine(layout, config, kWorld, options);
    std::vector<std::vector<float>> result(kWorld);
    std::vector<int> rank_retries(kWorld, 0);
    comm::run_world(transport, [&](comm::Comm& comm) {
      util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<float> grad;
      for (int round = 0; round < kRounds; ++round) {
        grad = rank_gradient(layout, comm.rank(), round);
        engine.allreduce(comm, grad, rng);
        rank_retries[static_cast<std::size_t>(comm.rank())] +=
            engine.last_step_report(comm.rank()).retries;
      }
      result[static_cast<std::size_t>(comm.rank())] = grad;
    });
    *retries = rank_retries[0] + rank_retries[1];
    return result;
  };

  comm::ShmTransport clean(kWorld);
  clean.set_policy(pol);
  int clean_retries = 0;
  const auto want = run(clean, &clean_retries);

  comm::FaultSpec spec;
  spec.corrupt_prob = 0.08;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    comm::ShmTransport inner(kWorld);
    comm::FaultInjector injector(seed, kWorld);
    injector.set_link(0, 1, spec);
    comm::FaultyTransport faulty(inner, injector);
    faulty.set_policy(pol);
    int retries = 0;
    std::vector<std::vector<float>> got;
    try {
      got = run(faulty, &retries);
    } catch (const comm::WorkerError& e) {
      ADD_FAILURE() << "seed " << seed << ": " << e.what();
      continue;
    }
    // The soak is vacuous unless the wire actually failed rounds.
    EXPECT_GT(retries, 0) << "seed " << seed;
    for (int r = 0; r < kWorld; ++r) {
      const auto& g = got[static_cast<std::size_t>(r)];
      const auto& w = want[static_cast<std::size_t>(r)];
      ASSERT_EQ(g.size(), w.size());
      EXPECT_EQ(std::memcmp(g.data(), w.data(), g.size() * sizeof(float)), 0)
          << "seed " << seed << " rank " << r
          << ": retried rounds changed the reduced gradient";
    }
  }
}

TEST(EngineRoundRetry, RetriesDisabledPreservesFailFastSeedBehaviour) {
  // With max_round_retries at its default 0, the engine must not consult
  // the injector, snapshot anything, or swallow failures: a CommError from
  // the collective propagates out of the worker as on the seed.
  constexpr int kWorld = 2;
  const auto layout = small_transformer_layout();
  comm::ShmTransport transport(kWorld);
  comm::CommPolicy pol;
  pol.timeout = 50ms;
  transport.set_policy(pol);

  CgxEngine engine(layout, CompressionConfig::cgx_default(), kWorld);
  try {
    comm::run_world(transport, [&](comm::Comm& comm) {
      util::Rng rng(6000 + static_cast<std::uint64_t>(comm.rank()));
      auto grad = rank_gradient(layout, comm.rank(), 0);
      if (comm.rank() == 1) {
        // Rank 1 never shows up for the collective; rank 0's bounded waits
        // must surface a structured timeout, not hang.
        std::this_thread::sleep_for(300ms);
        return;
      }
      engine.allreduce(comm, grad, rng);
    });
    FAIL() << "expected WorkerError";
  } catch (const comm::WorkerError& e) {
    EXPECT_EQ(e.rank, 0);
    ASSERT_TRUE(e.original);
    try {
      std::rethrow_exception(e.original);
    } catch (const comm::TimeoutError& t) {
      EXPECT_EQ(t.dst, 0);
    }
    EXPECT_FALSE(engine.last_step_report(0).ok);
    EXPECT_EQ(engine.last_step_report(0).attempts, 1);
  }
}

}  // namespace
}  // namespace cgx::core
