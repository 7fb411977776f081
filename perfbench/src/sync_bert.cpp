// Workload sync_bert_w2: 2 SHM ranks stream a 1/16-scale BERT-base
// gradient through core::AsyncGradientEngine (4-bit SRA, 256 KiB buckets)
// from the benchmark's own step loop. Backward compute is modelled by
// sleeps shaped like BERT's per-layer backward profile, with a FIXED total
// of kBackwardMs — an absolute budget that no measurement calibrates, so a
// faster comm layer cannot shrink the work it is compared against. The
// budget sits below the sync time, so the step stays comm-bound: the
// compressor stages, SHM copies and SRA phases do most of the work and
// `nn` does none. Two ranks and their comm threads are four threads, one
// per core of a 4-core host: with more, a step measures how the scheduler
// shares the cores (4 ranks slowed from 56 to 89 ms per step next to one
// busy loop; 2 ranks from 44 to 45 ms).
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "bert_inputs.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "core/async_engine.h"
#include "harness.h"
#include "traced_transport.h"

namespace perfbench {
namespace {

constexpr int kWorld = 2;
constexpr double kScale = 16.0;
constexpr std::size_t kBucketBytes = std::size_t{256} << 10;
constexpr double kBackwardMs = 30.0;
constexpr int kWarmup = 2;
constexpr double kNominalStepsPerS = 18.0;
constexpr std::size_t kWindow = 10;      // steps per samples_per_s window
constexpr std::size_t kStepWindow = 20;  // steps per percentile window

}  // namespace

Result run_sync_bert(const RunOptions& opt) {
  Result res;
  const models::PaperModel bert = models::bert_base();
  const SyncInputs in =
      make_sync_inputs(bert_layout(bert, kScale, opt.seed), kWorld, opt.seed);
  const tensor::LayerLayout& layout = in.layout;
  const std::size_t layers = layout.layer_count();

  // Per-layer sleep, layout order: BERT's backward profile scaled to the
  // fixed budget.
  std::vector<double> sleep_s = bert.backward_seconds(simgpu::GpuKind::RTX3090);
  double weight = 0.0;
  for (double w : sleep_s) weight += w;
  for (double& s : sleep_s) s *= 1e-3 * kBackwardMs / weight;

  const int timed =
      opt.setup_only ? 0
                     : static_cast<int>(steps_for(opt.seconds, kNominalStepsPerS, 20));
  core::AsyncOptions async;
  async.bucket_bytes = kBucketBytes;
  core::AsyncGradientEngine engine(
      std::make_unique<core::CgxEngine>(
          layout, core::CompressionConfig::cgx_default(), kWorld),
      async);
  comm::ShmTransport shm(kWorld);
  std::optional<TracedTransport> traced;
  if (opt.trace) traced.emplace(shm);
  comm::Transport& wire = opt.trace ? static_cast<comm::Transport&>(*traced)
                                    : static_cast<comm::Transport&>(shm);

  std::vector<double> step_ms;
  step_ms.reserve(static_cast<std::size_t>(timed));
  std::array<std::uint64_t, kWorld> hashes{};
  std::array<bool, kWorld> finite{};
  double rel_error = 0.0, setup_s = 0.0;
  Accum begin_ms, backward_ms, wait_ms, compress_ms, comm_busy_ms, exposed_ms,
      submissions;

  comm::run_world(wire, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    util::Rng rng = util::Rng(opt.seed).split(7100 + static_cast<std::uint64_t>(rank));
    const std::vector<float>& grad = in.grads[static_cast<std::size_t>(rank)];
    std::vector<float> fused(layout.total_numel());
    const auto step = [&](std::int64_t id, bool timing) {
      using clock = std::chrono::steady_clock;
      const int span = tracer().open("sync.step", rank, id);
      const std::int64_t t0 = timing ? now_ns() : 0;
      engine.begin_step(comm, fused, rng);
      const std::int64_t t1 = timing ? now_ns() : 0;
      // Layer l is ready at a deadline on one cumulative schedule from the
      // start of the backward, never reset: a late wake or a slow copy eats
      // into the next layer's budget, so the backward lasts kBackwardMs
      // plus one wake latency however busy the comm threads keep the CPU.
      const auto start = clock::now();
      double due_s = 0.0;
      for (std::size_t l = layers; l-- > 0;) {
        due_s += sleep_s[l];
        const auto deadline =
            start + std::chrono::duration_cast<clock::duration>(
                        std::chrono::duration<double>(due_s));
        if (deadline - clock::now() > std::chrono::microseconds(100)) {
          std::this_thread::sleep_until(deadline);
        }
        const auto& info = layout.layer(l);
        std::copy_n(grad.begin() + static_cast<std::ptrdiff_t>(info.offset),
                    info.numel,
                    fused.begin() + static_cast<std::ptrdiff_t>(info.offset));
        engine.notify_layer_ready(rank, l);
      }
      const std::int64_t t2 = timing ? now_ns() : 0;
      engine.wait_all(rank);
      if (timing) {
        const std::int64_t t3 = now_ns();
        begin_ms.add(rank, 1e-6 * static_cast<double>(t1 - t0));
        backward_ms.add(rank, 1e-6 * static_cast<double>(t2 - t1));
        wait_ms.add(rank, 1e-6 * static_cast<double>(t3 - t2));
        tracer().record("core.async.begin_step", rank, id, t0, t1, span);
        tracer().record("backward(modelled)", rank, id, t1, t2, span);
        tracer().record("core.async.wait_all", rank, id, t2, t3, span);
        const auto& t = engine.last_step_report(rank).timing;
        compress_ms.add(rank, 1e3 * t.compress_s);
        comm_busy_ms.add(rank, 1e3 * t.comm_s);
        exposed_ms.add(rank, 1e3 * t.exposed_comm_s);
        submissions.add(rank, static_cast<double>(t.buckets.size()));
      }
      tracer().close(span);
    };

    for (int i = 0; i < kWarmup; ++i) step(i - kWarmup, false);
    comm.barrier();
    if (rank == 0) {
      setup_s = since_start_s();
      wire.recorder().reset();
      if (traced) traced->reset();
      set_alloc_window(true);
    }
    comm.barrier();
    for (int i = 0; i < timed; ++i) {
      const auto t0 = Clock::now();
      step(i, opt.trace);
      if (rank == 0) {
        step_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      }
    }
    comm.barrier();
    if (rank == 0) set_alloc_window(false);
    comm.barrier();
    hashes[static_cast<std::size_t>(rank)] = fnv1a(fused);
    finite[static_cast<std::size_t>(rank)] = all_finite(fused);
    if (rank == 0) rel_error = rel_l2_error(fused, in.mean);
  });

  res.metrics["setup_s"] = setup_s;
  if (opt.setup_only) return res;
  res.attempted = static_cast<std::uint64_t>(timed);
  res.failed = res.attempted - step_ms.size();
  for (int r = 0; r < kWorld; ++r) {
    res.check(finite[static_cast<std::size_t>(r)],
              "non-finite value in a synchronized gradient");
    res.check(hashes[static_cast<std::size_t>(r)] == hashes[0],
              "ranks disagree on the synchronized gradient");
  }
  check_sync_error(res, rel_error,
                   expected_sra_rel_error(layout, core::CompressionConfig::cgx_default(),
                                          in.grads, in.mean, kWorld, opt.seed));

  const double egress = static_cast<double>(wire.recorder().total_bytes()) /
                        kWorld / static_cast<double>(timed);
  res.metrics["step_ms_p50"] = windowed_percentile(step_ms, kStepWindow, 50.0);
  res.metrics["step_ms_p95"] = windowed_percentile(step_ms, kStepWindow, 95.0);
  const std::vector<double> samples(step_ms.size(),
                                    bert.items_per_step_per_gpu * kWorld);
  res.metrics["samples_per_s"] = windowed_rate(step_ms, samples, kWindow);
  res.metrics["quality_err"] = rel_error;
  res.metrics["wire_bytes_per_step"] = egress;
  res.metrics["steps"] = static_cast<double>(step_ms.size());
  res.metrics["wall_step_ms"] = res.metrics["step_ms_p50"];
  res.metrics["util.allocs_per_step"] =
      static_cast<double>(allocs_in_window()) / static_cast<double>(timed);
  if (opt.trace) {
    auto& m = res.metrics;
    m["core.async.begin_step_ms"] = begin_ms.mean();
    m["nn.backward_ms"] = backward_ms.mean();
    m["core.async.wait_all_ms"] = wait_ms.mean();
    m["core.async.compress_ms"] = compress_ms.mean();
    m["core.async.comm_busy_ms"] = comm_busy_ms.mean();
    m["core.async.exposed_comm_ms"] = exposed_ms.mean();
    m["core.async.hidden_pct"] =
        comm_busy_ms.total() > 0.0
            ? 100.0 * (1.0 - exposed_ms.total() / comm_busy_ms.total())
            : 0.0;
    m["core.async.submissions"] = submissions.mean();
    m["core.engine.scratch_mb"] =
        static_cast<double>(engine.scratch_high_water_bytes()) / (1 << 20);
    const auto c = traced->totals();
    const double rank_steps = static_cast<double>(timed) * kWorld;
    m["comm.transport.send_calls"] = static_cast<double>(c.send_calls) / rank_steps;
    m["comm.transport.send_mb"] =
        static_cast<double>(c.send_bytes) / (1 << 20) / rank_steps;
    m["comm.transport.recv_wait_ms"] = 1e-6 * static_cast<double>(c.wait_ns) / rank_steps;
    m["comm.transport.direct_pulls"] = static_cast<double>(c.direct_pulls) / rank_steps;
  }
  return res;
}

}  // namespace perfbench
