// Layer profiles of the paper's evaluation models, plus the calibration
// constants that anchor the performance model to the paper's own
// measurements.
//
// The profiles are generated programmatically to match the real
// architectures' parameter layouts: layer names, shapes, counts and order
// (layout order = model order; gradients materialise in REVERSE of it
// during backward). Parameter totals land within ~2% of the canonical
// numbers (ResNet50 25.6M, VGG16 138M, ViT-B/16 86M, BERT-base 110M,
// GPT-2-small 124M, Transformer-XL-base ~190M with its 267k-token
// embedding).
//
// Single-GPU throughputs come from Table 1 and §6 of the paper (see the
// per-model notes in paper_profiles.cpp); batch sizes from Appendix C.
// EXPERIMENTS.md records where each constant came from.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "simgpu/machines.h"
#include "simgpu/timeline.h"
#include "tensor/layer_layout.h"

namespace cgx::models {

enum class LayerKind { Conv, Linear, Attention, Embedding, Norm, Bias };

struct PaperModel {
  std::string name;
  std::string task;       // dataset, for table labels
  std::string item_unit;  // "imgs" or "tokens"
  tensor::LayerLayout layout;
  std::vector<LayerKind> layer_kinds;  // aligned with layout
  double items_per_step_per_gpu = 0.0;
  bool fp16_wire = false;  // mixed-precision gradient encoding (App. C)
  // Single-GPU training throughput in items/s under the paper's recipe.
  std::map<simgpu::GpuKind, double> throughput;
  // FP32 throughput as a fraction of the above (Table 6 runs at FP32).
  double fp32_factor = 1.0;

  double single_gpu_items_per_s(simgpu::GpuKind gpu, bool fp32 = false) const;
  double step_seconds_1gpu(simgpu::GpuKind gpu, bool fp32 = false) const;
  std::size_t param_count() const { return layout.total_numel(); }

  // Per-layer backward compute time, layout order. Derived from a
  // flops-per-parameter weighting by layer kind (convs are compute-dense,
  // embeddings nearly free), normalised so forward+backward equals the
  // calibrated step time.
  std::vector<double> backward_seconds(simgpu::GpuKind gpu,
                                       bool fp32 = false) const;
  double forward_seconds(simgpu::GpuKind gpu, bool fp32 = false) const;
};

PaperModel resnet50();
PaperModel vgg16();
PaperModel vit_base();
PaperModel transformer_xl_base();
PaperModel bert_base();
PaperModel gpt2_small();

// Synthetic BRANCHY profile for the DAG-executor experiments
// (bench_dag_overlap). Layer names carry branch prefixes ("stem.",
// "t0.", "t1.", "head.") so a harness can partition the layout into
// independent backward chains by prefix. Not part of all_paper_models():
// its throughputs are plausible synthetics, not paper-calibrated
// measurements.
PaperModel two_tower_net();

std::vector<PaperModel> all_paper_models();

// Glue: builds the discrete-event step spec for `model` running on
// `gpu`-class devices with the given communication plan (the plan's
// per-layer costs are in LAYOUT order; the spec wants backward order).
simgpu::StepSpec build_step_spec(const PaperModel& model,
                                 simgpu::GpuKind gpu,
                                 const core::CommPlan& plan,
                                 bool fp32 = false);

// Convenience: end-to-end simulated throughput of `engine` driving `model`
// on `machine` with `gpus` devices and the given backend profile.
double simulated_throughput(const PaperModel& model,
                            const simgpu::Machine& machine,
                            core::GradientEngine& engine,
                            const comm::TransportProfile& profile,
                            bool fp32 = false);

}  // namespace cgx::models
