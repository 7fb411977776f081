// Workload elastic_mlp_w2: elastic nn::train_distributed on 2 SHM ranks —
// an MLP with plain SGD, a bounded CommPolicy and a plain CgxEngine (no
// overlap), so every step runs the monolithic CgxEngine::allreduce retry
// and recovery ladder and comm.membership. The run is a series of short
// training episodes; in each, a seeded FaultInjector crashes rank 1
// mid-step and the rank rejoins three steps later, so the world must be
// back at 2 with both ranks in lockstep by the end of the episode. Crash
// steps are about one in eleven timed steps, which puts step_ms_p95 on the
// recovery steps. Each episode trains on a dataset of its own, so
// quality_err is a mean over many datasets rather than one seed's luck.
// Two ranks, as on sync_bert_w2 (4 ranks slowed from 2.6 to 4.7 ms per
// clean step next to one busy loop; 2 ranks from 2.2 to 2.4 ms).
#include <chrono>
#include <cmath>
#include <optional>

#include "comm/fault.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "harness.h"
#include "models/small_models.h"
#include "trainer_seams.h"

namespace perfbench {
namespace {

using namespace std::chrono_literals;

constexpr int kWorld = 2;
constexpr std::size_t kDim = 64;
constexpr std::size_t kHidden = 256;
constexpr std::size_t kClasses = 4;
constexpr std::size_t kBatch = 16;  // per rank
// Momentum 0: a readmitted rank receives parameters but not optimizer state.
constexpr double kLr = 0.05;
constexpr std::size_t kEpisodeSteps = 12;
constexpr std::size_t kRejoinAfter = 3;  // steps between crash and rejoin
constexpr std::size_t kProbeSteps = 4;
constexpr std::size_t kLossTail = 3;
constexpr double kNominalEpisodesPerS = 10.0;

struct StepSample {
  double ms = 0.0;
  int world = 0;
  int departed = 0;
  int joined = 0;
  int retries = 0;
};

}  // namespace

Result run_elastic_mlp(const RunOptions& opt) {
  Result res;
  const std::size_t episodes =
      opt.setup_only ? 0 : steps_for(opt.seconds, kNominalEpisodesPerS, 10);
  std::optional<data::BlobDataset> dataset;
  TrainerSeams seams(opt.trace);
  core::CgxEngine* engine = nullptr;

  const auto model = [&seams, &opt](util::Rng& rng) {
    auto m = models::make_mlp(kDim, kHidden, kClasses, rng);
    if (opt.trace) {
      // The first child finishes backward last: its hook marks the end of
      // the backward pass (this trainer does not stream, so hooks are free).
      if (auto* seq = dynamic_cast<nn::Sequential*>(m.get())) {
        seq->module(0).set_grad_ready_hook(
            [&seams](nn::Module&) { seams.backward_done(); });
      }
    }
    return m;
  };
  const auto optimizer = seams.optimizer([](std::vector<nn::Param*> params) {
    return std::make_unique<nn::Sgd>(std::move(params), nn::constant_lr(kLr),
                                     0.0);
  });
  const auto engines = [&engine](const tensor::LayerLayout& layout, int world) {
    auto e = std::make_unique<core::CgxEngine>(
        layout, core::CompressionConfig::cgx_default(), world);
    engine = e.get();
    return e;
  };
  const auto batches =
      seams.batches([&dataset](int rank, std::size_t step) {
        auto b = dataset->batch(kBatch, rank, step);
        return nn::Batch{std::move(b.input), std::move(b.targets)};
      });
  const auto loss = seams.loss(nn::make_xent_loss(kClasses));

  nn::TrainOptions base;
  base.world_size = kWorld;
  base.elastic = true;
  base.policy.timeout = 40ms;
  base.policy.checksums = true;

  // Set-up: a clean elastic probe counts each rank's transport operations
  // per step, so crashes can be placed inside a chosen step.
  std::array<std::uint64_t, kWorld> ops_per_step{};
  {
    dataset.emplace(kClasses, kDim, opt.seed);
    comm::FaultInjector probe(opt.seed, kWorld);
    probe.enable_op_counting();
    nn::TrainOptions o = base;
    o.steps = kProbeSteps;
    o.seed = opt.seed;
    o.fault_injector = &probe;
    seams.arm(kProbeSteps, kProbeSteps);  // untimed, no final hash
    nn::train_distributed(model, optimizer, engines, batches, loss, o);
    for (int r = 0; r < kWorld; ++r) {
      ops_per_step[static_cast<std::size_t>(r)] =
          probe.rank_ops(r) / kProbeSteps;
      res.check(ops_per_step[static_cast<std::size_t>(r)] > 0,
                "probe counted no transport operations");
    }
  }
  res.metrics["setup_s"] = since_start_s();
  if (opt.setup_only || !res.correct) return res;

  std::vector<StepSample> samples;
  samples.reserve(episodes * kEpisodeSteps);
  std::vector<double> wire, tail_losses;
  wire.reserve(episodes * kEpisodeSteps);
  std::size_t allocs = 0, scratch_bytes = 0;
  double epochs = 0.0;
  for (std::size_t e = 0; e < episodes; ++e) {
    util::Rng erng = util::Rng(opt.seed).split(1000 + e);
    const int victim = 1 + static_cast<int>(erng.next_below(kWorld - 1));
    const std::uint64_t crash_step = 2 + erng.next_below(3);
    const std::uint64_t ops = ops_per_step[static_cast<std::size_t>(victim)];
    comm::FaultInjector injector(opt.seed * 1000003ull + e, kWorld);
    injector.schedule_crash(victim, ops * crash_step + erng.next_below(ops));
    dataset.emplace(kClasses, kDim, erng.next_u64());

    nn::TrainOptions o = base;
    o.steps = kEpisodeSteps;
    o.seed = opt.seed + 17 * e;
    o.fault_injector = &injector;
    o.rejoins = {{victim, static_cast<std::size_t>(crash_step + kRejoinAfter)}};
    seams.arm(1, kEpisodeSteps - 1);
    double last = 0.0;
    int crashes = 0, rejoins = 0;
    std::vector<double> losses;
    losses.reserve(kEpisodeSteps);
    o.on_step = [&](std::size_t step, double l) {
      const double now = since_start_s();
      losses.push_back(l);
      const core::StepReport& report = engine->last_step_report(0);
      if (step == 0) {
        set_alloc_window(true);
      } else {
        samples.push_back({1e3 * (now - last), report.world, report.departed,
                           report.joined, report.retries});
        wire.push_back(report.wire_bytes);
        crashes += report.departed > 0;
        rejoins += report.joined > 0;
      }
      if (step + 1 == kEpisodeSteps) {
        set_alloc_window(false);
        allocs += allocs_in_window();
        // The trainer owns the engine: read it before the episode returns.
        scratch_bytes = engine->scratch_high_water_bytes();
        res.check(report.world == kWorld,
                  "world not back at full size at episode end");
        epochs += static_cast<double>(report.epoch);
      }
      last = now;
    };
    const nn::TrainResult trained =
        nn::train_distributed(model, optimizer, engines, batches, loss, o);
    res.attempted += kEpisodeSteps - 1;
    res.failed += std::min(kEpisodeSteps - 1,
                           kEpisodeSteps - trained.loss_history.size());
    res.check(trained.loss_history.size() == kEpisodeSteps,
              "episode skipped steps");
    res.check(seams.all_ranks_identical(kWorld),
              "survivors and the rejoined rank are not in lockstep");
    res.check(crashes == 1 && rejoins == 1,
              "episode did not absorb exactly one crash and one rejoin");
    if (losses.size() < kLossTail) continue;
    double tail = 0.0;
    for (std::size_t i = losses.size() - kLossTail; i < losses.size(); ++i) {
      tail += losses[i];
    }
    tail_losses.push_back(tail / kLossTail);
  }
  res.check(seams.nonfinite_losses.load() == 0, "non-finite loss");

  std::vector<double> step_ms, step_samples, recovery, rejoin, degraded;
  std::size_t retried = 0, retries = 0;
  for (const StepSample& s : samples) {
    step_ms.push_back(s.ms);
    step_samples.push_back(static_cast<double>(s.world) * kBatch);
    retried += s.retries > 0;
    retries += static_cast<std::size_t>(s.retries);
    if (s.departed > 0) {
      recovery.push_back(s.ms);
    } else if (s.joined > 0) {
      rejoin.push_back(s.ms);
    } else if (s.world < kWorld) {
      degraded.push_back(s.ms);
    }
  }
  const double quality = mean(tail_losses);
  res.check(std::isfinite(quality), "final loss is not finite");
  // Percentile windows of five episodes hold five crash steps in 55, so
  // their p95 is a recovery step.
  const std::size_t episode = kEpisodeSteps - 1;  // timed steps per episode
  res.metrics["step_ms_p50"] = windowed_percentile(step_ms, 5 * episode, 50.0);
  res.metrics["step_ms_p95"] = windowed_percentile(step_ms, 5 * episode, 95.0);
  // One window per episode: each holds one crash and one rejoin.
  res.metrics["samples_per_s"] = windowed_rate(step_ms, step_samples, episode);
  res.metrics["quality_err"] = quality;
  res.metrics["wire_bytes_per_step"] = mean(wire);
  res.metrics["steps"] = static_cast<double>(step_ms.size());
  res.metrics["wall_step_ms"] = res.metrics["step_ms_p50"];
  res.metrics["util.allocs_per_step"] =
      static_cast<double>(allocs) / static_cast<double>(step_ms.size());
  if (opt.trace) {
    auto& m = res.metrics;
    const double n = static_cast<double>(step_ms.size());
    m["data.batch_ms"] = seams.batch_ms.mean();
    m["nn.forward_ms"] = seams.forward_ms.mean();
    m["nn.loss_ms"] = seams.loss_ms.mean();
    m["nn.backward_ms"] = seams.backward_ms.mean();
    m["nn.optim_ms"] = seams.optim_ms.mean();
    // Backward end -> optimizer entry: the allreduce, recovery included.
    m["core.engine.allreduce_ms"] = seams.sync_ms.mean();
    m["core.engine.retries"] = static_cast<double>(retries) / static_cast<double>(episodes);
    m["core.engine.retried_step_pct"] = 100.0 * static_cast<double>(retried) / n;
    m["core.engine.scratch_mb"] =
        static_cast<double>(scratch_bytes) / (1 << 20);
    m["comm.membership.epochs"] = epochs / static_cast<double>(episodes);
    m["comm.membership.recovery_ms"] = median(recovery);
    m["comm.membership.rejoin_ms"] = median(rejoin);
    m["comm.membership.degraded_step_ms"] = median(degraded);
  }
  return res;
}

}  // namespace perfbench
