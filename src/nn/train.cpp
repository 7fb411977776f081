#include "nn/train.h"

#include <cstdlib>
#include <mutex>

#include "comm/collectives.h"
#include "comm/membership.h"
#include "core/async_engine.h"
#include "core/budget.h"
#include "nn/graph.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace cgx::nn {

namespace {

// Installs a shared GEMM worker pool for the duration of a training run
// (all replica threads funnel row blocks through it; parallel_for is safe
// for concurrent callers). Uninstalls before the pool is destroyed.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(std::size_t threads) {
    if (threads > 0) {
      pool_ = std::make_unique<util::ThreadPool>(threads);
      tensor::set_compute_pool(pool_.get());
    }
  }
  ~ScopedComputePool() {
    if (pool_ != nullptr) tensor::set_compute_pool(nullptr);
  }

 private:
  std::unique_ptr<util::ThreadPool> pool_;
};

// Parameter-space mirrors of gather_grads/scatter_grads: the rejoin
// protocol broadcasts the full parameter vector through the fused buffer.
void gather_params(const std::vector<Param*>& params,
                   const tensor::LayerLayout& layout,
                   std::span<float> fused) {
  for (std::size_t l = 0; l < params.size(); ++l) {
    tensor::copy(params[l]->value.data(), layout.slice(fused, l));
  }
}

void scatter_params(std::span<const float> fused,
                    const tensor::LayerLayout& layout,
                    const std::vector<Param*>& params) {
  for (std::size_t l = 0; l < params.size(); ++l) {
    tensor::copy(layout.slice(fused, l), params[l]->value.data());
  }
}

bool elastic_env_enabled() {
  const char* env = std::getenv("CGX_ELASTIC");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

LossFn make_xent_loss(std::size_t classes) {
  // One shared instance per call site; the trainer invokes it from a single
  // thread per replica, and each replica gets its own LossFn copy via the
  // shared_ptr's state being read-only after construction. To keep it
  // simple and thread-safe, construct a fresh criterion per invocation.
  return [classes](const tensor::Tensor& output, const Batch& batch,
                   tensor::Tensor& grad_out) {
    SoftmaxCrossEntropy criterion(classes);
    const double loss = criterion.forward(output, batch.targets);
    grad_out = criterion.grad().clone();
    return loss;
  };
}

TrainResult train_single(const ModelFactory& model_factory,
                         const OptimizerFactory& optimizer_factory,
                         const BatchProvider& batches, const LossFn& loss,
                         std::size_t steps, std::uint64_t seed) {
  util::Rng init_rng(seed);
  std::unique_ptr<Module> model = model_factory(init_rng);
  std::vector<Param*> params = parameters(*model);
  std::unique_ptr<Optimizer> optimizer = optimizer_factory(params);

  TrainResult result;
  result.params = param_count(params);
  for (std::size_t step = 0; step < steps; ++step) {
    const Batch batch = batches(0, step);
    const tensor::Tensor& out = model->forward(batch.input, /*train=*/true);
    tensor::Tensor grad_out;
    const double l = loss(out, batch, grad_out);
    model->backward(grad_out);
    optimizer->step();
    result.loss_history.push_back(l);
  }
  result.final_loss =
      result.loss_history.empty() ? 0.0 : result.loss_history.back();
  result.model = std::move(model);
  return result;
}

TrainResult train_distributed(const ModelFactory& model_factory,
                              const OptimizerFactory& optimizer_factory,
                              const EngineFactory& engine_factory,
                              const BatchProvider& batches, const LossFn& loss,
                              const TrainOptions& options) {
  CGX_CHECK_GT(options.world_size, 0);
  ScopedComputePool compute_pool(options.compute_threads);

  // Build the layout once (from a throwaway replica) so the shared engine
  // can be constructed before the workers start.
  util::Rng probe_rng(options.seed);
  std::unique_ptr<Module> probe = model_factory(probe_rng);
  const tensor::LayerLayout layout = build_layout(parameters(*probe));
  probe.reset();

  std::unique_ptr<core::GradientEngine> engine =
      engine_factory(layout, options.world_size);
  CGX_CHECK(engine != nullptr);
  auto* cgx = dynamic_cast<core::CgxEngine*>(engine.get());
  auto* async = dynamic_cast<core::AsyncGradientEngine*>(engine.get());
  if (options.overlap && async == nullptr && cgx != nullptr) {
    // The factory handed us a plain flat CgxEngine; wrap it in the
    // streaming facade so buckets ship from the backward hooks.
    std::unique_ptr<core::CgxEngine> owned(
        static_cast<core::CgxEngine*>(engine.release()));
    core::AsyncOptions async_options;
    async_options.bucket_bytes = options.overlap_bucket_bytes;
    async_options.comm_lanes = options.overlap_comm_lanes;
    engine = std::make_unique<core::AsyncGradientEngine>(
        std::move(owned), async_options);
    async = static_cast<core::AsyncGradientEngine*>(engine.get());
  }
  if (async != nullptr) cgx = &async->inner();
  const bool adaptive = options.assigner != nullptr &&
                        options.reassign_every > 0 && cgx != nullptr;
  const bool elastic = options.elastic || elastic_env_enabled();
  if (elastic) {
    // Elastic membership needs the CgxEngine recovery protocol and a fixed
    // per-step collective structure; the streaming facade and the adaptive
    // stats pipeline both assume the world never changes shape.
    CGX_CHECK(cgx != nullptr && async == nullptr)
        << "elastic training requires a plain CgxEngine factory";
    CGX_CHECK(!options.overlap) << "elastic training excludes overlap";
    CGX_CHECK(!adaptive) << "elastic training excludes adaptive compression";
    if (options.fault_injector != nullptr) {
      CGX_CHECK(options.policy.bounded())
          << "elastic fault runs need a bounded CommPolicy (crash detection "
             "rides the deadline machinery)";
    }
  }

  // Live adaptive policy pipeline (core/budget.h): rank 0 feeds per-step
  // gradient stats into the controller, which re-solves the assignment
  // every reassign_every steps through whichever Assigner the caller chose
  // (k-means heuristic or the DP budget planner) and applies it to the
  // engine config; the trainer then runs the differential rebuild.
  std::unique_ptr<core::PolicyController> controller;
  if (adaptive) {
    controller = std::make_unique<core::PolicyController>(
        layout, *options.assigner,
        static_cast<std::size_t>(options.reassign_every), options.seed);
  }
  TrainResult result;
  std::mutex result_mutex;

  auto transport =
      comm::make_transport(options.backend, options.world_size);
  // Install the policy on the INNER transport before any decorator copies
  // it (FaultyTransport captures the inner policy at construction).
  transport->set_policy(options.policy);
  comm::Transport* wire = transport.get();
  std::unique_ptr<comm::FaultyTransport> faulty;
  if (options.fault_injector != nullptr) {
    faulty = std::make_unique<comm::FaultyTransport>(*transport,
                                                     *options.fault_injector);
    wire = faulty.get();
  }
  std::unique_ptr<comm::Membership> membership;
  if (elastic) {
    membership = std::make_unique<comm::Membership>(options.world_size);
    if (options.fault_injector != nullptr) {
      membership->import_departures(*options.fault_injector);
    }
    for (const auto& [r, s] : options.rejoins) {
      membership->schedule_rejoin(r, static_cast<std::uint64_t>(s));
    }
  }
  comm::Membership* m = membership.get();
  // Generous bound for the rejoin rendezvous: the waiting rank parks here
  // across whole training steps of the shrunken world.
  const std::chrono::milliseconds rejoin_wait{60'000};

  auto worker = [&](comm::Comm& comm) {
    // GLOBAL rank is the stable identity: batches, RNG streams and model
    // init key off it so a rank's data shard survives world re-shards.
    const int grank = comm.global_rank();
    const int rank = grank;
    util::Rng init_rng(options.seed);  // identical init on every rank
    std::unique_ptr<Module> model = model_factory(init_rng);
    std::vector<Param*> params = parameters(*model);
    std::unique_ptr<Optimizer> optimizer = optimizer_factory(params);
    util::Rng engine_rng =
        util::Rng(options.seed).split(1000 + static_cast<std::uint64_t>(rank));
    std::vector<float> fused(layout.total_numel());

    std::size_t begin_step = 0;
    if (elastic && m->is_scheduled_joiner(grank)) {
      // Successor of a crashed rank (or a launch-time joiner): wait for the
      // survivors to open the admission window, then receive authoritative
      // parameters from the lowest pre-join survivor. The engine state
      // (fresh compressors, zero EF) was already rebuilt by the delta
      // leader's apply_view.
      const comm::Membership::Admission adm =
          m->await_rejoin(comm, rejoin_wait);
      comm::broadcast(comm, std::span<float>(fused),
                      m->view()->dense_rank(adm.root));
      scatter_params(fused, layout, params);
      begin_step = static_cast<std::size_t>(adm.resume_step);
    }

    // Container views of the model: both expose a child list whose
    // gradient-ready hooks drive streaming, and both route backward
    // through a DepEngine when given an executor pool.
    auto* seq = dynamic_cast<Sequential*>(model.get());
    auto* graph = dynamic_cast<Graph*>(model.get());
    const std::size_t children =
        graph != nullptr ? graph->node_count()
                         : (seq != nullptr ? seq->size() : 0);
    const auto child_at = [&](std::size_t i) -> Module& {
      return graph != nullptr ? graph->node(i) : seq->module(i);
    };

    // DAG executor: a per-rank pool (NOT shared across ranks) so a rank
    // whose inline collective blocks on a pool worker can never starve
    // another rank's backward progress.
    std::unique_ptr<util::ThreadPool> dag_pool;
    if (options.dag_threads > 0 && (graph != nullptr || seq != nullptr)) {
      dag_pool = std::make_unique<util::ThreadPool>(options.dag_threads);
      if (graph != nullptr) {
        graph->set_executor(dag_pool.get());
      } else {
        seq->set_executor(dag_pool.get());
      }
    }
    const auto drop_executor = [&] {
      if (dag_pool == nullptr) return;
      if (graph != nullptr) {
        graph->set_executor(nullptr);
      } else {
        seq->set_executor(nullptr);
      }
    };

    // Streaming path: install per-child gradient-ready hooks that copy the
    // child's freshly-final gradients into the fused buffer and notify the
    // async engine, so bucket communication starts while backward is still
    // running. Falls back to the monolithic allreduce (which the facade
    // also implements) when the model isn't a Sequential or Graph.
    const bool streaming = async != nullptr && children > 0;
    if (streaming) {
      std::size_t offset = 0;
      for (std::size_t i = 0; i < children; ++i) {
        Module& child = child_at(i);
        // Frozen children contribute nothing to the layout — skip BEFORE
        // advancing the offset, or every later child's slice would drift.
        if (child.frozen()) continue;
        std::vector<Param*> child_params;
        child.collect_params("", child_params);
        const std::size_t begin = offset;
        const std::size_t end = offset + child_params.size();
        offset = end;
        if (begin == end) continue;  // parameterless (ReLU, pool, ...)
        child.set_grad_ready_hook([&, begin, end, rank](Module&) {
          // Within a child, notify in reverse parameter order to match
          // the facade's gradient-production convention. Ranks need not
          // agree on notify order (a DAG executor's differs per rank):
          // the engine releases buckets in canonical plan order.
          for (std::size_t l = end; l-- > begin;) {
            tensor::copy(params[l]->grad.data(),
                         layout.slice(std::span<float>(fused), l));
            async->notify_layer_ready(rank, l);
          }
        });
      }
      CGX_CHECK_EQ(offset, params.size());
    }

    std::size_t step = begin_step;
    while (step < options.steps) {
      if (elastic) {
        // Planned membership deltas rendezvous at step boundaries: graceful
        // departures leave, readmitted ranks join, and every active rank
        // takes part in the parameter broadcast that seeds a joiner.
        const comm::Membership::StepAction act = m->apply_scheduled(
            comm, static_cast<std::uint64_t>(step),
            [&](const comm::WorldView& view) { cgx->apply_view(view); });
        if (act.leave) {
          if (!m->rejoin_scheduled(grank)) {
            drop_executor();
            return;  // graceful goodbye
          }
          const comm::Membership::Admission adm =
              m->await_rejoin(comm, rejoin_wait);
          comm::broadcast(comm, std::span<float>(fused),
                          m->view()->dense_rank(adm.root));
          scatter_params(fused, layout, params);
          step = static_cast<std::size_t>(adm.resume_step);
          continue;
        }
        if (act.joined >= 0) {
          gather_params(params, layout, fused);
          comm::broadcast(comm, std::span<float>(fused),
                          m->view()->dense_rank(act.join_root));
          scatter_params(fused, layout, params);
        }
      }
      const Batch batch = batches(rank, step);
      const tensor::Tensor& out = model->forward(batch.input, /*train=*/true);
      tensor::Tensor grad_out;
      const double l = loss(out, batch, grad_out);
      if (streaming) {
        async->begin_step(comm, fused, engine_rng);
        model->backward(grad_out);  // hooks gather + notify per layer
        async->wait_all(rank);
      } else {
        model->backward(grad_out);
        gather_grads(params, layout, fused);
        engine->allreduce(comm, fused, engine_rng);
      }
      scatter_grads(fused, layout, params);

      if (options.clip_norm > 0.0) {
        // Clipping needs the global norm of the SYNCHRONIZED gradient
        // (Technical Issue 3); identical on all ranks, so replicas stay in
        // lockstep.
        clip_global_norm(params, options.clip_norm);
      }
      optimizer->step();

      // DENSE rank 0 — the lowest ACTIVE rank — records the step, so the
      // loss history survives the original rank 0 crashing.
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(result_mutex);
        result.loss_history.push_back(l);
        if (options.on_step) options.on_step(step, l);
        if (adaptive) controller->observe_step(fused);
      }

      // Replan boundary: pure arithmetic on every rank (the shared
      // controller's internals are only ever touched from dense rank 0, so
      // no cross-rank reads race its stats).
      if (adaptive && (step + 1) % options.reassign_every == 0) {
        comm.barrier();  // quiesce before mutating the shared engine
        if (rank == 0) {
          std::vector<bool> compressible;
          compressible.reserve(layout.layer_count());
          for (const auto& cfg : cgx->resolved()) {
            compressible.push_back(cfg.method != core::Method::None);
          }
          core::Assignment assignment = controller->replan(
              step, compressible, options.adaptive, cgx->config(),
              cgx->ef_residual_norm(0));
          // Rebuild through the facade when present so the bucket plan
          // tracks the new filtered set; warmed arenas and unchanged
          // compressors carry across either way.
          if (async != nullptr) {
            async->rebuild();
          } else {
            cgx->rebuild();
          }
          std::lock_guard<std::mutex> lock(result_mutex);
          result.assignments.push_back(std::move(assignment));
        }
        comm.barrier();  // all ranks resume under the new policy
      }
      ++step;
    }
    if (streaming) {
      // The hooks capture stack locals of this worker; drop them before
      // the model escapes to the caller.
      for (std::size_t i = 0; i < children; ++i) {
        child_at(i).clear_grad_ready_hook();
      }
    }
    // Detach the executor before dag_pool (a local) is destroyed, so the
    // escaping model never holds a dangling pool pointer.
    drop_executor();
    // The lowest surviving rank owns the result model: in a fixed world
    // that is rank 0, and all replicas are identical by construction.
    const bool owns_result =
        elastic ? grank == m->lowest_active() : rank == 0;
    if (owns_result) {
      std::lock_guard<std::mutex> lock(result_mutex);
      result.params = param_count(params);
      result.model = std::move(model);
    }
  };
  comm::run_world(*wire, worker, comm::WorldOptions{m});

  result.final_loss =
      result.loss_history.empty() ? 0.0 : result.loss_history.back();
  return result;
}

}  // namespace cgx::nn
