#include "models/paper_profiles.h"

#include <cmath>

#include "util/check.h"

namespace cgx::models {
namespace {

using simgpu::GpuKind;
using tensor::Shape;

// Relative flops-per-parameter by layer kind: a conv weight is reused
// across every output pixel, an embedding row is touched once per token.
double flops_per_param(LayerKind kind) {
  switch (kind) {
    case LayerKind::Conv:
      return 12.0;
    case LayerKind::Linear:
      return 1.0;
    case LayerKind::Attention:
      return 1.6;  // attention matmuls add seq^2 work on top
    case LayerKind::Embedding:
      return 0.02;
    case LayerKind::Norm:
    case LayerKind::Bias:
      return 1.0;
  }
  return 1.0;
}

// Builder helper keeping layout and kinds aligned.
struct ProfileBuilder {
  PaperModel model;

  void add(const std::string& name, Shape shape, LayerKind kind) {
    model.layout.add_layer(name, std::move(shape));
    model.layer_kinds.push_back(kind);
  }
  void conv(const std::string& name, std::size_t oc, std::size_t ic,
            std::size_t k, bool bias = false) {
    add(name + ".weight", Shape{oc, ic, k, k}, LayerKind::Conv);
    if (bias) add(name + ".bias", Shape{oc}, LayerKind::Bias);
  }
  void bn(const std::string& name, std::size_t c) {
    add(name + ".weight", Shape{c}, LayerKind::Norm);
    add(name + ".bias", Shape{c}, LayerKind::Bias);
  }
  void ln(const std::string& name, std::size_t d) {
    add(name + ".weight", Shape{d}, LayerKind::Norm);
    add(name + ".bias", Shape{d}, LayerKind::Bias);
  }
  void linear(const std::string& name, std::size_t in, std::size_t out,
              LayerKind kind = LayerKind::Linear) {
    add(name + ".weight", Shape{in, out}, kind);
    add(name + ".bias", Shape{out}, LayerKind::Bias);
  }
  // One standard pre-LN transformer block of width d (qkv fused),
  // mlp 4x.
  void transformer_block(const std::string& p, std::size_t d) {
    ln(p + ".ln1", d);
    linear(p + ".attn.qkv", d, 3 * d, LayerKind::Attention);
    linear(p + ".attn.proj", d, d, LayerKind::Attention);
    ln(p + ".ln2", d);
    linear(p + ".mlp.fc1", d, 4 * d);
    linear(p + ".mlp.fc2", 4 * d, d);
  }
};

}  // namespace

double PaperModel::single_gpu_items_per_s(GpuKind gpu, bool fp32) const {
  const auto it = throughput.find(gpu);
  CGX_CHECK(it != throughput.end())
      << name << " has no throughput for " << simgpu::gpu_kind_name(gpu);
  return it->second * (fp32 ? fp32_factor : 1.0);
}

double PaperModel::step_seconds_1gpu(GpuKind gpu, bool fp32) const {
  return items_per_step_per_gpu / single_gpu_items_per_s(gpu, fp32);
}

std::vector<double> PaperModel::backward_seconds(GpuKind gpu,
                                                 bool fp32) const {
  // Backward is ~60% of step compute (standard 1:2 fwd:bwd split).
  const double backward_total = 0.6 * step_seconds_1gpu(gpu, fp32);
  std::vector<double> weights(layout.layer_count());
  double total_weight = 0.0;
  for (std::size_t l = 0; l < layout.layer_count(); ++l) {
    weights[l] = flops_per_param(layer_kinds[l]) *
                 static_cast<double>(layout.layer(l).numel);
    total_weight += weights[l];
  }
  CGX_CHECK_GT(total_weight, 0.0);
  for (auto& w : weights) w *= backward_total / total_weight;
  return weights;
}

double PaperModel::forward_seconds(GpuKind gpu, bool fp32) const {
  return 0.4 * step_seconds_1gpu(gpu, fp32);
}

// ------------------------------------------------------------- ResNet50

PaperModel resnet50() {
  ProfileBuilder b;
  b.model.name = "ResNet50";
  b.model.task = "ImageNet";
  b.model.item_unit = "imgs";
  b.model.items_per_step_per_gpu = 32;  // total batch 256 on 8 GPUs (App C)
  b.model.fp16_wire = true;  // NVIDIA AMP recipe: FP16 gradient allreduce
  // Table 1 (V100/RTX3090/RTX2080); A6000 from Table 1's 566 imgs/s.
  b.model.throughput = {{GpuKind::V100, 1226.0},
                        {GpuKind::A6000, 566.0},
                        {GpuKind::RTX3090, 850.0},
                        {GpuKind::RTX2080TI, 484.0}};
  // Table 6 runs FP32: CGX reaches 2900 imgs/s on 8x3090 at ~90% scaling
  // -> ~400 imgs/s per GPU -> factor ~0.47.
  b.model.fp32_factor = 0.47;

  b.conv("conv1", 64, 3, 7);
  b.bn("bn1", 64);
  const std::size_t stage_blocks[4] = {3, 4, 6, 3};
  std::size_t in_c = 64;
  for (int stage = 0; stage < 4; ++stage) {
    const std::size_t width = 64u << stage;      // 64,128,256,512
    const std::size_t out_c = width * 4;         // bottleneck expansion
    for (std::size_t block = 0; block < stage_blocks[stage]; ++block) {
      const std::string p = "layer" + std::to_string(stage + 1) + "." +
                            std::to_string(block);
      b.conv(p + ".conv1", width, in_c, 1);
      b.bn(p + ".bn1", width);
      b.conv(p + ".conv2", width, width, 3);
      b.bn(p + ".bn2", width);
      b.conv(p + ".conv3", out_c, width, 1);
      b.bn(p + ".bn3", out_c);
      if (block == 0) {
        b.conv(p + ".downsample", out_c, in_c, 1);
        b.bn(p + ".downsample_bn", out_c);
      }
      in_c = out_c;
    }
  }
  b.linear("fc", 2048, 1000);
  return std::move(b.model);
}

// ------------------------------------------------------------- VGG16

PaperModel vgg16() {
  ProfileBuilder b;
  b.model.name = "VGG16";
  b.model.task = "ImageNet";
  b.model.item_unit = "imgs";
  b.model.items_per_step_per_gpu = 32;
  b.model.fp16_wire = true;  // NVIDIA AMP recipe: FP16 gradient allreduce
  b.model.throughput = {{GpuKind::V100, 560.0},
                        {GpuKind::A6000, 300.0},
                        {GpuKind::RTX3090, 330.0},
                        {GpuKind::RTX2080TI, 200.0}};
  b.model.fp32_factor = 0.5;

  const std::size_t cfg[] = {64, 64, 0, 128, 128, 0, 256, 256, 256, 0,
                             512, 512, 512, 0, 512, 512, 512, 0};
  std::size_t in_c = 3;
  int conv_idx = 0;
  for (std::size_t c : cfg) {
    if (c == 0) continue;  // pooling layer, no params
    const std::string p = "features." + std::to_string(conv_idx++);
    b.conv(p, c, in_c, 3, /*bias=*/true);
    in_c = c;
  }
  b.linear("classifier.0", 512 * 7 * 7, 4096);
  b.linear("classifier.3", 4096, 4096);
  b.linear("classifier.6", 4096, 1000);
  return std::move(b.model);
}

// ------------------------------------------------------------- ViT-B/16

PaperModel vit_base() {
  ProfileBuilder b;
  b.model.name = "ViT-base";
  b.model.task = "ImageNet";
  b.model.item_unit = "imgs";
  b.model.items_per_step_per_gpu = 72;  // total batch 576 (App C)
  b.model.fp16_wire = false;            // AMP level 1: FP32 gradients
  b.model.throughput = {{GpuKind::V100, 330.0},
                        {GpuKind::A6000, 350.0},
                        {GpuKind::RTX3090, 340.0},
                        {GpuKind::RTX2080TI, 160.0}};
  b.model.fp32_factor = 0.55;

  b.conv("patch_embed", 768, 3, 16, /*bias=*/true);
  b.add("cls_token", Shape{1, 768}, LayerKind::Embedding);
  b.add("pos_embed", Shape{197, 768}, LayerKind::Embedding);
  for (int i = 0; i < 12; ++i) {
    b.transformer_block("blocks." + std::to_string(i), 768);
  }
  b.ln("norm", 768);
  b.linear("head", 768, 1000);
  return std::move(b.model);
}

// ------------------------------------------------------------- TXL-base

PaperModel transformer_xl_base() {
  ProfileBuilder b;
  b.model.name = "Transformer-XL";
  b.model.task = "WikiText-103";
  b.model.item_unit = "tokens";
  // NVIDIA recipe: batch 256 sequences, tgt_len 192 -> 32 seq/GPU.
  b.model.items_per_step_per_gpu = 32.0 * 192.0;
  b.model.fp16_wire = true;  // AMP level 2: FP16 gradients (App C)
  b.model.throughput = {{GpuKind::V100, 37000.0},
                        {GpuKind::A6000, 39000.0},
                        {GpuKind::RTX3090, 39000.0},
                        {GpuKind::RTX2080TI, 13000.0}};
  b.model.fp32_factor = 0.85;

  // The defining feature: a 267735-token embedding dominating the
  // parameter count — the large, early, hard-to-overlap layer of §5 and
  // Appendix E.
  b.add("word_emb.weight", Shape{267735, 512}, LayerKind::Embedding);
  for (int i = 0; i < 16; ++i) {
    b.transformer_block("layers." + std::to_string(i), 512);
  }
  b.ln("ln_out", 512);
  // Output projection tied to the embedding in the real model; the
  // adaptive-softmax clusters add a small projection.
  b.linear("crit.out_proj", 512, 512);
  return std::move(b.model);
}

// ------------------------------------------------------------- BERT-base

PaperModel bert_base() {
  ProfileBuilder b;
  b.model.name = "BERT";
  b.model.task = "SQuAD";
  b.model.item_unit = "tokens";
  // App C: batch 3 per GPU, seq 384, FP32 training.
  b.model.items_per_step_per_gpu = 3.0 * 384.0;
  b.model.fp16_wire = false;
  // Anchored to Table 4 (AWS 4xV100 NCCL: 14.4k tok/s near-linear) and
  // Table 6 (8x3090 CGX: 38.7k tok/s at ~85-90% scaling).
  b.model.throughput = {{GpuKind::V100, 3900.0},
                        {GpuKind::A6000, 5800.0},
                        {GpuKind::RTX3090, 5500.0},
                        {GpuKind::RTX2080TI, 2400.0}};
  b.model.fp32_factor = 1.0;  // the recipe already runs FP32

  b.add("embeddings.word.weight", Shape{30522, 768}, LayerKind::Embedding);
  b.add("embeddings.position.weight", Shape{512, 768},
        LayerKind::Embedding);
  b.add("embeddings.token_type.weight", Shape{2, 768},
        LayerKind::Embedding);
  b.ln("embeddings.ln", 768);
  for (int i = 0; i < 12; ++i) {
    b.transformer_block("encoder.layer." + std::to_string(i), 768);
  }
  b.linear("qa_outputs", 768, 2);
  return std::move(b.model);
}

// ------------------------------------------------------------- GPT-2

PaperModel gpt2_small() {
  ProfileBuilder b;
  b.model.name = "GPT-2";
  b.model.task = "WikiText-2";
  b.model.item_unit = "tokens";
  // App C: batch 24 total over 8 GPUs, seq 1024, AMP level 2.
  b.model.items_per_step_per_gpu = 3.0 * 1024.0;
  b.model.fp16_wire = true;
  b.model.throughput = {{GpuKind::V100, 8200.0},
                        {GpuKind::A6000, 8800.0},
                        {GpuKind::RTX3090, 8600.0},
                        {GpuKind::RTX2080TI, 3100.0}};
  b.model.fp32_factor = 0.6;

  b.add("wte.weight", Shape{50257, 768}, LayerKind::Embedding);
  b.add("wpe.weight", Shape{1024, 768}, LayerKind::Embedding);
  for (int i = 0; i < 12; ++i) {
    b.transformer_block("h." + std::to_string(i), 768);
  }
  b.ln("ln_f", 768);
  return std::move(b.model);
}

// ----------------------------------------------------- branchy synthetics

PaperModel two_tower_net() {
  ProfileBuilder b;
  b.model.name = "TwoTower";
  b.model.task = "synthetic";
  b.model.item_unit = "imgs";
  b.model.items_per_step_per_gpu = 32;
  b.model.fp16_wire = false;
  // Plausible synthetics in the ViT-base ballpark; the DAG bench only
  // needs a self-consistent backward-time split, not paper fidelity.
  b.model.throughput = {{GpuKind::V100, 340.0},
                        {GpuKind::A6000, 360.0},
                        {GpuKind::RTX3090, 350.0},
                        {GpuKind::RTX2080TI, 170.0}};
  b.model.fp32_factor = 1.0;

  // Matches models::make_two_tower's structure: stem, two independent
  // towers ("t0." / "t1."), fan-in head. The towers' gradients are
  // producible concurrently — the exposed-comm experiment's whole point.
  b.linear("stem.fc", 512, 1024);
  for (int t = 0; t < 2; ++t) {
    const std::string p = "t" + std::to_string(t);
    for (int l = 0; l < 4; ++l) {
      b.linear(p + ".fc" + std::to_string(l), 1024, 1024);
    }
  }
  b.linear("head.fc", 1024, 10);
  return std::move(b.model);
}

std::vector<PaperModel> all_paper_models() {
  std::vector<PaperModel> models;
  models.push_back(resnet50());
  models.push_back(vgg16());
  models.push_back(vit_base());
  models.push_back(transformer_xl_base());
  models.push_back(bert_base());
  models.push_back(gpt2_small());
  return models;
}

simgpu::StepSpec build_step_spec(const PaperModel& model, GpuKind gpu,
                                 const core::CommPlan& plan, bool fp32) {
  const std::vector<double> backward = model.backward_seconds(gpu, fp32);
  CGX_CHECK_EQ(plan.per_layer_s.size(), backward.size());
  simgpu::StepSpec spec;
  // Compression-kernel contention extends the compute timeline (App. A).
  spec.forward_s = model.forward_seconds(gpu, fp32) +
                   plan.kernel_contention_s;
  const std::size_t n = backward.size();
  spec.backward_s.reserve(n + 1);
  spec.comm_s.reserve(n + 1);
  // Backward visits layers output-side first = REVERSE layout order.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t l = n - 1 - i;
    spec.backward_s.push_back(backward[l]);
    spec.comm_s.push_back(plan.per_layer_s[l]);
  }
  if (plan.fused_packet_s > 0.0) {
    // The fused full-precision packet ships once everything has been
    // produced.
    spec.backward_s.push_back(0.0);
    spec.comm_s.push_back(plan.fused_packet_s);
  }
  return spec;
}

double simulated_throughput(const PaperModel& model,
                            const simgpu::Machine& machine,
                            core::GradientEngine& engine,
                            const comm::TransportProfile& profile,
                            bool fp32) {
  const simgpu::CostModel cost(machine.topology, profile);
  const core::CommPlan plan =
      engine.comm_plan(cost, simgpu::gpu_spec(machine.gpu).compress_gbps);
  simgpu::StepSpec spec = build_step_spec(model, machine.gpu, plan, fp32);
  // MPI's host/device synchronisation defeats overlap (§4).
  spec.overlap = !profile.requires_host_sync;
  const simgpu::StepResult result = simgpu::simulate_step(spec);
  return simgpu::throughput_items_per_s(result.step_s,
                                        model.items_per_step_per_gpu,
                                        machine.topology.num_devices());
}

}  // namespace cgx::models
