// Benchmark-owned seams around nn::train_distributed: the BatchProvider,
// the LossFn and an Optimizer wrapper. They observe every rank's step from
// outside the trainer:
//
//   batch provider entry ... return      -> data.batch
//   batch return ........... loss entry  -> nn.forward
//   loss entry ............. loss return -> nn.loss
//   loss return ............ optim entry -> backward + gradient sync
//   optim entry ............ optim exit  -> nn.optim
//
// The trainer calls all three on the rank's own thread, so a thread-local
// (rank, step) set by the batch provider identifies the caller later in
// the step. With tracing off the seams only check losses and hash the
// final parameters; with tracing on they also time and record spans.
// The Assigner is deliberately NOT wrapped: core/budget.cpp special-cases
// DpAssigner through a dynamic_cast, so a wrapper would change the program.
#pragma once

#include <atomic>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "harness.h"
#include "nn/train.h"

namespace perfbench {

class TrainerSeams {
 public:
  explicit TrainerSeams(bool trace) : trace_(trace) {}

  // Steps before `timed_from` are not timed; `final_step` is the step after
  // which every rank hashes its parameters.
  void arm(std::size_t timed_from, std::size_t final_step) {
    timed_from_ = timed_from;
    final_step_ = final_step;
    final_hash_.fill(0);
    for (auto& f : has_final_) f.store(false);
  }

  nn::BatchProvider batches(nn::BatchProvider inner) {
    return [this, inner = std::move(inner)](int rank, std::size_t step) {
      t_rank = rank;
      t_step = step;
      if (!timed(step)) return inner(rank, step);
      Rank& r = ranks_[static_cast<std::size_t>(rank)];
      r.step_span = tracer().open("train.step", rank,
                                  static_cast<std::int64_t>(step));
      const std::int64_t t0 = now_ns();
      nn::Batch batch = inner(rank, step);
      r.batch_end = now_ns();
      batch_ms.add(rank, 1e-6 * static_cast<double>(r.batch_end - t0));
      tracer().record("data.batch", rank, static_cast<std::int64_t>(step), t0,
                      r.batch_end, r.step_span);
      return batch;
    };
  }

  nn::LossFn loss(nn::LossFn inner) {
    return [this, inner = std::move(inner)](const tensor::Tensor& out,
                                            const nn::Batch& batch,
                                            tensor::Tensor& grad) {
      const bool timing = timed(t_step);
      const std::int64_t t0 = timing ? now_ns() : 0;
      const double l = inner(out, batch, grad);
      if (!std::isfinite(l)) nonfinite_losses.fetch_add(1);
      if (timing) {
        Rank& r = ranks_[static_cast<std::size_t>(t_rank)];
        r.loss_end = now_ns();
        const auto step = static_cast<std::int64_t>(t_step);
        forward_ms.add(t_rank, 1e-6 * static_cast<double>(t0 - r.batch_end));
        loss_ms.add(t_rank, 1e-6 * static_cast<double>(r.loss_end - t0));
        tracer().record("nn.forward", t_rank, step, r.batch_end, t0,
                        r.step_span);
        tracer().record("nn.loss", t_rank, step, t0, r.loss_end, r.step_span);
        r.backward_end = -1;
      }
      return l;
    };
  }

  // Marks the end of this rank's backward pass. Installed as the gradient-
  // ready hook of the model's first child on trainers that do not stream
  // (the streaming trainer owns the hooks itself).
  void backward_done() {
    if (!timed(t_step)) return;
    Rank& r = ranks_[static_cast<std::size_t>(t_rank)];
    r.backward_end = now_ns();
    backward_ms.add(t_rank,
                    1e-6 * static_cast<double>(r.backward_end - r.loss_end));
    tracer().record("nn.backward", t_rank, static_cast<std::int64_t>(t_step),
                    r.loss_end, r.backward_end, r.step_span);
  }

  nn::OptimizerFactory optimizer(nn::OptimizerFactory inner) {
    return [this, inner = std::move(inner)](std::vector<nn::Param*> params) {
      auto wrapped = inner(params);
      return std::make_unique<Optimizer>(std::move(wrapped),
                                         std::move(params), *this);
    };
  }

  bool all_ranks_identical(int world) const {
    for (int r = 0; r < world; ++r) {
      if (!has_final_[static_cast<std::size_t>(r)].load()) return false;
      if (final_hash_[static_cast<std::size_t>(r)] != final_hash_[0]) {
        return false;
      }
    }
    return true;
  }

  Accum batch_ms, forward_ms, loss_ms, backward_ms, sync_ms, optim_ms;
  std::atomic<int> nonfinite_losses{0};

 private:
  static inline thread_local int t_rank = 0;
  static inline thread_local std::size_t t_step = 0;

  struct alignas(64) Rank {
    int step_span = -1;
    std::int64_t batch_end = 0;
    std::int64_t loss_end = 0;
    std::int64_t backward_end = -1;
  };

  class Optimizer final : public nn::Optimizer {
   public:
    Optimizer(std::unique_ptr<nn::Optimizer> inner,
              std::vector<nn::Param*> params, TrainerSeams& seams)
        : inner_(std::move(inner)), params_(std::move(params)), s_(seams) {}

    void step() override {
      const int rank = t_rank;
      const std::size_t step = t_step;
      const bool timing = s_.timed(step);
      const std::int64_t t0 = timing ? now_ns() : 0;
      inner_->step();
      ++steps_;
      if (timing) {
        Rank& r = s_.ranks_[static_cast<std::size_t>(rank)];
        const std::int64_t t1 = now_ns();
        const auto sstep = static_cast<std::int64_t>(step);
        // Without a backward hook the interval covers backward + sync.
        const std::int64_t sync_from =
            r.backward_end >= 0 ? r.backward_end : r.loss_end;
        s_.sync_ms.add(rank, 1e-6 * static_cast<double>(t0 - sync_from));
        s_.optim_ms.add(rank, 1e-6 * static_cast<double>(t1 - t0));
        tracer().record("sync", rank, sstep, sync_from, t0, r.step_span);
        tracer().record("nn.optim", rank, sstep, t0, t1, r.step_span);
        tracer().close(r.step_span);
      }
      if (step == s_.final_step_) {
        std::uint64_t h = 0;
        for (const nn::Param* p : params_) {
          h = h * 1099511628211ull ^ fnv1a(p->value.data());
        }
        s_.final_hash_[static_cast<std::size_t>(rank)] = h;
        s_.has_final_[static_cast<std::size_t>(rank)].store(true);
      }
    }

   private:
    std::unique_ptr<nn::Optimizer> inner_;
    std::vector<nn::Param*> params_;
    TrainerSeams& s_;
  };

  bool timed(std::size_t step) const { return trace_ && step >= timed_from_; }

  const bool trace_;
  std::size_t timed_from_ = 0;
  std::size_t final_step_ = 0;
  std::array<Rank, kMaxRanks> ranks_{};
  std::array<std::uint64_t, kMaxRanks> final_hash_{};
  std::array<std::atomic<bool>, kMaxRanks> has_final_{};
};

}  // namespace perfbench
