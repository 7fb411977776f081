// Training harnesses: single-device and data-parallel.
//
// The DistributedTrainer is the reproduction of the paper's end-to-end
// setting: N device threads, each with a model replica and its shard of
// the batch; per step each computes forward/backward, the fused gradient
// goes through a GradientEngine (CGX / QNCCL / GRACE / baseline), the
// synchronized gradient comes back, optional global-norm clipping runs on
// it (Technical Issue 3), and every replica applies an identical optimizer
// step. Replica state never diverges — an invariant the tests assert —
// because the engines return bit-identical buffers on all ranks.
//
// Adaptive compression (§5) hooks in here: rank 0 accumulates gradient
// statistics and periodically re-assigns per-layer bit-widths; the engine
// is rebuilt at a barrier so all ranks switch policies atomically.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "comm/fault.h"
#include "comm/transports.h"
#include "core/adaptive.h"
#include "core/engine.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/sequential.h"

namespace cgx::nn {

struct Batch {
  tensor::Tensor input;
  std::vector<int> targets;
};

// rank/step -> that rank's micro-batch (ranks must return disjoint data for
// data parallelism to mean anything).
using BatchProvider = std::function<Batch(int rank, std::size_t step)>;

// Builds one model replica. Called once per rank with a shared seed so all
// replicas initialize identically.
using ModelFactory = std::function<std::unique_ptr<Module>(util::Rng&)>;

using OptimizerFactory =
    std::function<std::unique_ptr<Optimizer>(std::vector<Param*>)>;

// Builds the gradient engine once; shared by all rank threads.
using EngineFactory = std::function<std::unique_ptr<core::GradientEngine>(
    const tensor::LayerLayout&, int world_size)>;

// loss(output, batch, grad_out) -> scalar loss; fills grad_out (allocated
// by the callee to the output's shape).
using LossFn = std::function<double(const tensor::Tensor& output,
                                    const Batch& batch,
                                    tensor::Tensor& grad_out)>;

// Standard classification / LM loss over the last dim.
LossFn make_xent_loss(std::size_t classes);

struct TrainOptions {
  int world_size = 4;
  std::size_t steps = 100;
  double clip_norm = 0.0;  // 0 = no clipping
  std::uint64_t seed = 1;
  comm::Backend backend = comm::Backend::Shm;
  // Adaptive compression: re-assign every `reassign_every` steps using
  // `assigner` (requires the engine to be a CgxEngine). 0 = off.
  core::Assigner* assigner = nullptr;
  std::size_t reassign_every = 0;
  core::AdaptiveOptions adaptive;
  // Streaming overlapped communication (paper §4, Fig. 3): wrap the
  // engine in a core::AsyncGradientEngine (when the factory returned a
  // flat CgxEngine) and ship gradient buckets from the backward hooks
  // instead of one monolithic allreduce after backward. Results are
  // bit-identical to overlap=false by construction (test-enforced).
  bool overlap = false;
  std::size_t overlap_bucket_bytes = std::size_t{4} << 20;
  // Comm lanes for the streaming facade (core::AsyncOptions::comm_lanes):
  // comm threads per rank, each draining its share of the buckets. Only
  // meaningful with overlap.
  int overlap_comm_lanes = 1;
  // DAG-scheduled backward: when the model is an nn::Graph (or an
  // nn::Sequential, as a degenerate chain), run backward on a per-rank
  // core::DepEngine pool with this many workers, so independent branches
  // differentiate concurrently and gradient buckets launch when their
  // true producers finish. 0 = serial walk. Bit-identical either way
  // (test-enforced); the async engine releases buckets in canonical plan
  // order, so per-rank completion-order divergence cannot deadlock the
  // collectives.
  std::size_t dag_threads = 0;
  // Worker threads for the tiled GEMMs (tensor::set_compute_pool) during
  // this run. 0 = serial. Any value produces bit-identical models: the
  // tiling fixes every output element's accumulation order regardless of
  // thread count (enforced by tests/tensor/gemm_determinism_test.cpp).
  std::size_t compute_threads = 0;
  // ---- Elastic membership (comm/membership.h, README "Surviving rank
  // failures") ----
  // Survive rank crashes: the run continues in the shrunken world instead
  // of rethrowing WorkerError, and crashed/new ranks may rejoin at epoch
  // boundaries. CGX_ELASTIC=1 in the environment also enables it. Requires
  // a CgxEngine factory; incompatible with overlap and adaptive (the
  // streaming facade and the stats pipeline assume a fixed world).
  bool elastic = false;
  // Reliability policy installed on the transport before traffic flows.
  // Elastic runs with a fault injector must be bounded (crash detection
  // rides the deadline machinery).
  comm::CommPolicy policy{};
  // Optional fault harness: crashes/hangs/planned departures. Not owned.
  // Planned departures (FaultInjector::schedule_departure) are imported
  // into the membership schedule automatically.
  comm::FaultInjector* fault_injector = nullptr;
  // (global rank, step): readmit `rank` at the top of `step`. The rank
  // receives parameters by broadcast from the lowest surviving rank.
  std::vector<std::pair<int, std::size_t>> rejoins;
  // Called on rank 0 after every step with the step's loss.
  std::function<void(std::size_t, double)> on_step;
};

struct TrainResult {
  std::vector<double> loss_history;  // rank-0 loss per step
  double final_loss = 0.0;
  std::size_t params = 0;
  // Bit-width assignments chosen by the adaptive runs (empty otherwise).
  std::vector<core::Assignment> assignments;
  // Rank 0's trained replica (all replicas are identical by construction),
  // for post-training evaluation.
  std::unique_ptr<Module> model;
};

// Single-device reference loop (world of one, no engine).
TrainResult train_single(const ModelFactory& model_factory,
                         const OptimizerFactory& optimizer_factory,
                         const BatchProvider& batches, const LossFn& loss,
                         std::size_t steps, std::uint64_t seed);

TrainResult train_distributed(const ModelFactory& model_factory,
                              const OptimizerFactory& optimizer_factory,
                              const EngineFactory& engine_factory,
                              const BatchProvider& batches, const LossFn& loss,
                              const TrainOptions& options);

}  // namespace cgx::nn
