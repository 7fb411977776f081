#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "comm/fault.h"
#include "comm/membership.h"
#include "comm/tagspace.h"
#include "comm/topology.h"
#include "core/error_feedback.h"
#include "core/hierarchical.h"
#include "core/qsgd.h"
#include "core/topk.h"
#include "tensor/tensor_ops.h"
#include "util/arena.h"
#include "util/check.h"

namespace cgx::core {
namespace {

constexpr int kGraceTag = 310;

// Engine-owned workspace slots. The compressed collectives own byte slots
// 0..2+world and float/size slot 0 (see compressed_allreduce.cpp); engines
// use high slot numbers so a collective call never invalidates a span the
// engine still holds.
constexpr std::size_t kSlotPacket = 16;       // fused FP32 packet (floats)
constexpr std::size_t kSlotCommScratch = 17;  // comm::allreduce scratch
constexpr std::size_t kSlotRoundSnapshot = 18;  // pre-round rollback copy
constexpr std::size_t kSlotGraceMine = 16;       // bytes: own payload
constexpr std::size_t kSlotGraceIncoming = 17;   // bytes: peer payload
constexpr std::size_t kSlotGraceDecompressed = 16;  // floats

// Relative cost of running one byte of gradient through a method's
// compression + decompression kernels, against the device's effective
// quantization rate. Quantizers run "at line rate" (§2.4, Technical Issue
// 1); selection and decomposition methods pay more compute.
double kernel_multiplier(Method m) {
  switch (m) {
    case Method::None:
      return 0.0;
    case Method::Fake:
      return 0.25;
    case Method::Fp16:
      return 0.5;
    case Method::Qsgd:
    case Method::Nuq:
    case Method::TernGrad:
    case Method::OneBit:
      return 1.0;
    case Method::TopK:
      return 2.0;
    case Method::PowerSgd:
      return 6.0;
  }
  return 1.0;
}

std::vector<int> participating_devices(const simgpu::CostModel& cost,
                                       int world_size) {
  CGX_CHECK_GE(cost.topology().num_devices(), world_size);
  std::vector<int> devices(static_cast<std::size_t>(world_size));
  for (int i = 0; i < world_size; ++i) devices[static_cast<std::size_t>(i)] = i;
  return devices;
}

double compress_kernel_seconds(Method method, double raw_bytes,
                               double compress_gbps) {
  if (compress_gbps <= 0.0) return 0.0;
  // One compression plus one decompression pass per rank per step. Half of
  // it rides the communication stream (overlappable); the other half is
  // charged as device contention via CommPlan::kernel_contention_s.
  return kernel_multiplier(method) * 2.0 * raw_bytes /
         (compress_gbps * 1e9);
}

double scheme_seconds(const simgpu::CostModel& cost,
                      std::span<const int> devices,
                      comm::ReductionScheme scheme, double chunk_wire_bytes,
                      double full_wire_bytes) {
  const auto n = static_cast<double>(devices.size());
  if (n <= 1.0) return 0.0;
  switch (scheme) {
    case comm::ReductionScheme::ScatterReduceAllgather:
      return cost.sra_seconds(devices, chunk_wire_bytes, chunk_wire_bytes);
    case comm::ReductionScheme::Ring:
      return 2.0 * (n - 1.0) * cost.ring_step_seconds(devices,
                                                      chunk_wire_bytes);
    case comm::ReductionScheme::Tree:
      return cost.allreduce_seconds(devices, full_wire_bytes, scheme);
  }
  return 0.0;
}

double scheme_egress_bytes(comm::ReductionScheme scheme, std::size_t n,
                           double chunk_wire_bytes, double full_wire_bytes) {
  if (n <= 1) return 0.0;
  switch (scheme) {
    case comm::ReductionScheme::ScatterReduceAllgather:
    case comm::ReductionScheme::Ring:
      return 2.0 * static_cast<double>(n - 1) * chunk_wire_bytes;
    case comm::ReductionScheme::Tree:
      return 2.0 * full_wire_bytes;  // up once, relay down once (worst path)
  }
  return 0.0;
}

// Field-wise policy equality for the differential rebuild: a layer whose
// resolved config is unchanged keeps its warmed compressors (and their
// error-feedback residuals / PowerSGD warm starts) across rebuild().
bool same_policy(const LayerCompression& a, const LayerCompression& b) {
  return a.method == b.method && a.bits == b.bits &&
         a.bucket_size == b.bucket_size && a.topk_ratio == b.topk_ratio &&
         a.rank == b.rank && a.fake_ratio == b.fake_ratio &&
         a.error_feedback == b.error_feedback &&
         a.powersgd_fp16 == b.powersgd_fp16 && a.dgc == b.dgc &&
         a.dgc_momentum == b.dgc_momentum && a.dgc_clip == b.dgc_clip;
}

// Cost of the rails schedule (core/hierarchical.h): an FP32 intra-node
// reduce-scatter in which every rank sends 1/m of the raw layer to each of
// its m-1 node peers, concurrent compressed SRAs on every shard's rail —
// all rails of a node share its NIC — and an FP32 allgather that mirrors
// the reduce-scatter.
double hierarchical_layer_seconds(const simgpu::CostModel& cost,
                                  const std::vector<int>& node_of,
                                  const LayerCompression& cfg,
                                  std::size_t numel, std::size_t rows) {
  std::vector<std::vector<int>> nodes;  // ranks per node, first-appearance
  std::vector<int> ids;
  std::size_t shards = 0;
  for (int r = 0; r < static_cast<int>(node_of.size()); ++r) {
    const int id = node_of[static_cast<std::size_t>(r)];
    const auto k = static_cast<std::size_t>(
        std::find(ids.begin(), ids.end(), id) - ids.begin());
    if (k == ids.size()) {
      ids.push_back(id);
      nodes.emplace_back();
    }
    auto& members = nodes[k];
    members.push_back(r);
    shards = std::max(shards, members.size());
  }
  // A rail chunk is 1/N of a shard, which is 1/S of the layer.
  const std::size_t parts = shards * nodes.size();
  const double rail_chunk_wire = static_cast<double>(
      wire_bytes(cfg, (numel + parts - 1) / parts, rows));
  std::vector<simgpu::Flow> local, rails;
  for (const auto& members : nodes) {
    const double shard = 4.0 * static_cast<double>(numel) /
                         static_cast<double>(members.size());
    for (int a : members) {
      for (int b : members) {
        if (a != b) local.push_back(simgpu::Flow{a, b, shard});
      }
    }
  }
  for (std::size_t s = 0; nodes.size() > 1 && s < shards; ++s) {
    for (const auto& from : nodes) {
      for (const auto& to : nodes) {
        if (&from == &to) continue;
        rails.push_back(simgpu::Flow{from[s % from.size()], to[s % to.size()],
                                     rail_chunk_wire});
      }
    }
  }
  return 2.0 * (cost.round_seconds(local) + cost.round_seconds(rails));
}

}  // namespace

// ----------------------------------------------------------------- CGX

CgxEngine::CgxEngine(const tensor::LayerLayout& layout,
                     CompressionConfig config, int world_size,
                     EngineOptions options)
    : layout_(layout),
      config_(std::move(config)),
      world_size_(world_size),
      options_(options) {
  CGX_CHECK_GT(world_size, 0);
  active_world_ = world_size;
  hier_.node_of = options_.node_of;
  all_layers_.resize(layout_.layer_count());
  std::iota(all_layers_.begin(), all_layers_.end(), std::size_t{0});
  rebuild();
}

void CgxEngine::rebuild() {
  // Differential rebuild: ranks_ (and with it every RankState's grow-only
  // CollectiveWorkspace) survives, and only layers whose resolved policy
  // changed get fresh compressors. An adaptive policy swap used to clear
  // ranks_ wholesale, throwing warmed arenas away and re-triggering
  // steady-state allocations on the next step.
  std::vector<LayerCompression> previous = std::move(resolved_);
  resolved_.clear();
  resolved_.reserve(layout_.layer_count());
  filtered_layers_.clear();
  packet_numel_ = 0;
  for (const auto& info : layout_.layers()) {
    resolved_.push_back(config_.for_layer(info.name, info.numel));
    if (resolved_.back().method == Method::None) {
      filtered_layers_.push_back(resolved_.size() - 1);
      packet_numel_ += info.numel;
    }
  }
  if (ranks_.empty()) {
    ranks_.resize(static_cast<std::size_t>(world_size_));
  }
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].workspace.set_arena(&util::rank_arena(static_cast<int>(r)));
  }
  const std::size_t count = chunk_compressor_count();
  for (auto& rank : ranks_) {
    rank.per_layer.resize(layout_.layer_count());
    rank.chunk_ptrs.resize(layout_.layer_count());
    for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
      const LayerCompression& cfg = resolved_[l];
      if (l < previous.size() && same_policy(previous[l], cfg) &&
          rank.per_layer[l].size() ==
              (cfg.method == Method::None ? 0 : count)) {
        continue;  // unchanged layer keeps its warmed compressors
      }
      reset_compressors(rank, l, count);
    }
  }
  wire_bytes_cached_ = wire_bytes_per_rank(options_.scheme);
}

std::size_t CgxEngine::chunk_compressor_count() const {
  // Flat collectives bind one compressor per dense chunk; the two-level
  // schedule one per (owned shard, rail chunk) of the current topology.
  return hier_.node_of.empty()
             ? static_cast<std::size_t>(active_world_)
             : hierarchical_compressor_count(hier_.node_of);
}

void CgxEngine::reset_compressors(RankState& rank, std::size_t l,
                                  std::size_t count) {
  const LayerCompression& cfg = resolved_[l];
  auto& chunks = rank.per_layer[l];
  auto& ptrs = rank.chunk_ptrs[l];
  chunks.clear();
  ptrs.clear();
  if (cfg.method == Method::None) return;
  const std::size_t rows =
      layout_.layer(l).shape.empty() ? 0 : layout_.layer(l).shape.front();
  chunks.reserve(count);
  ptrs.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    chunks.push_back(make_compressor(cfg, rows));
    if (options_.compression_pool != nullptr) {
      chunks.back()->enable_threading(
          options_.compression_pool, options_.compression_threading_min_numel);
    }
    ptrs.push_back(chunks.back().get());
  }
}

void CgxEngine::finish_report(int rank, StepReport& report) {
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  report.epoch = applied_epoch_;
  report.world = active_world_;
  // The movement baseline for a rank's first step is the LAUNCH world, so a
  // shrink during step 0 still reports its departure.
  const int last = state.last_world == 0 ? world_size_ : state.last_world;
  report.departed = std::max(0, last - active_world_);
  report.joined = std::max(0, active_world_ - last);
  report.wire_bytes = wire_bytes_cached_;
  state.last_world = active_world_;
}

void CgxEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                          util::Rng& rng) {
  CGX_CHECK_EQ(comm.size(), active_world_);
  CGX_CHECK_EQ(fused.size(), layout_.total_numel());
  // RankState is keyed by GLOBAL rank: a survivor keeps its compressors and
  // workspace across re-shards even as its dense rank shifts.
  const int rank = comm.global_rank();
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  // Grow-only engine state touched inside the collective (error-feedback
  // residuals, compressor scratch) carves from this rank's arena. The alloc
  // tests prove the steady state does not grow, so arena waste is bounded
  // by warm-up.
  util::ScopedArena bind(util::rank_arena(rank));
  StepReport& report = state.report;
  report.ok = true;
  report.attempts = 0;
  report.retries = 0;
  report.incidents.clear();
  CollectiveWorkspace& ws = state.workspace;
  // The synchronous step is the streaming plan in its simplest shape: the
  // packet, then every compressed layer as a one-layer bucket on bucket 0's
  // tags (the monolithic range), in layout order on the caller's RNG.
  const auto attempt = [&] {
    packet_allreduce(comm, fused, ws);
    for (std::size_t l = 0; l < resolved_.size(); ++l) {
      if (resolved_[l].method == Method::None) continue;
      const std::span<const std::size_t> layer(&l, 1);
      bucket_begin(comm, fused, layer, rng, /*tag_base=*/0, ws);
      bucket_finish(comm, fused, layer, rng, /*tag_base=*/0, ws);
    }
  };
  try {
    run_round(comm, fused, state.rounds++, all_layers_, ws, report,
              /*report_mutex=*/nullptr, attempt);
  } catch (...) {
    finish_report(rank, report);
    throw;
  }
  finish_report(rank, report);
}

void CgxEngine::run_round(comm::Comm& comm, std::span<float> fused,
                          std::uint64_t round,
                          std::span<const std::size_t> rollback,
                          CollectiveWorkspace& ws, StepReport& report,
                          std::mutex* report_mutex,
                          void (*body)(const void*), const void* context) {
  const auto lock_report = [report_mutex] {
    return report_mutex != nullptr ? std::unique_lock(*report_mutex)
                                   : std::unique_lock<std::mutex>();
  };
  // Every crash consumes a retry and up to world-1 ranks can depart, so a
  // world that admits departures retries at least 2 x world times; a fixed
  // world keeps the configured budget.
  const int budget = comm.membership().admits_departures()
                         ? std::max(options_.max_round_retries, 2 * world_size_)
                         : options_.max_round_retries;
  // A failed attempt leaves the rollback layers partially reduced
  // (collectives work in place), so each retry restores them from a
  // workspace-held snapshot. Without retries nothing is copied.
  std::span<float> snapshot;
  if (budget > 0 && !rollback.empty()) {
    std::size_t numel = 0;
    for (std::size_t l : rollback) numel += layout_.layer(l).numel;
    snapshot = ws.floats(kSlotRoundSnapshot, numel);
    std::size_t off = 0;
    for (std::size_t l : rollback) {
      const auto slice = layout_.slice(std::span<const float>(fused), l);
      tensor::copy(slice, snapshot.subspan(off, slice.size()));
      off += slice.size();
    }
  }
  for (int attempt = 0;; ++attempt) {
    {
      const auto lock = lock_report();
      ++report.attempts;
    }
    try {
      if (budget > 0 && options_.injector != nullptr &&
          options_.injector->round_fails(round, attempt)) {
        throw comm::TimeoutError(-1, comm.rank(), -1,
                                 std::chrono::milliseconds{0},
                                 "synthetic round failure (fault harness)");
      }
      body(context);
      if (budget > 0) {
        // Commit fence: a round only counts when every CURRENT rank
        // finished its attempt. A peer whose last receive failed (or that
        // died) after this rank's last send would otherwise split the world
        // into ranks that committed and ranks that retried; the fence turns
        // that into a collective decision (everyone passes or everyone
        // recovers and retries).
        const comm::CommPolicy& pol = comm.transport().policy();
        const std::chrono::milliseconds fence =
            pol.bounded() ? pol.timeout : std::chrono::milliseconds{1000};
        if (!comm.try_barrier(fence)) {
          throw comm::TimeoutError(-1, comm.global_rank(), -1, fence,
                                   "step commit fence");
        }
      }
      return;
    } catch (const comm::CommError& e) {
      {
        const auto lock = lock_report();
        report.incidents.push_back(
            StepReport::Incident{e.src, e.dst, e.tag, e.what()});
        if (attempt >= budget) {
          report.ok = false;
          throw;
        }
        ++report.retries;
      }
      // Every rank must agree to retry and quiesce before buffers are
      // reused; if agreement fails the world is broken for good and the
      // TimeoutError from reshard_world propagates. On a world that admits
      // departures this is where a crashed peer is voted out and the plans
      // shrink.
      reshard_world(comm);
      std::size_t off = 0;
      for (std::size_t l : rollback) {
        const std::span<float> slice = layout_.slice(fused, l);
        tensor::copy(snapshot.subspan(off, slice.size()), slice);
        off += slice.size();
      }
    }
  }
}

std::chrono::milliseconds CgxEngine::derived_recovery_timeout(
    const comm::CommPolicy& pol) const {
  if (options_.recovery_timeout.count() > 0) return options_.recovery_timeout;
  // The agreement wait must be bounded even under an unbounded policy —
  // otherwise a rank that died (rather than failed transiently) would hang
  // the retry protocol forever. 2x the policy timeout gives the slowest
  // survivor room to reach its own deadline before agreement expires.
  return pol.bounded() ? 2 * pol.timeout : std::chrono::milliseconds{1000};
}

void CgxEngine::reshard_world(comm::Comm& comm) {
  const comm::CommPolicy& pol = comm.transport().policy();
  const std::chrono::milliseconds timeout = derived_recovery_timeout(pol);
  comm::Membership& membership = comm.membership();
  const auto outcome = membership.recover(
      comm, timeout, [this](const comm::WorldView& view) { apply_view(view); });
  if (outcome == comm::Membership::Recovery::kReshard) {
    // recover() already fenced the epoch, flushed every rank's inbound and
    // rebuilt the plans under its own gates; the retried attempt can start.
    return;
  }
  // Transient fault (no pending death): agree, flush own inbound, agree
  // again so a fast rank cannot push retry traffic into a channel a slow
  // rank is still resetting. Both waits run on the recovery gate, so they
  // can never entangle with ranks parked at the step commit fence.
  if (!membership.recovery_barrier(timeout)) {
    throw comm::TimeoutError(-1, comm.global_rank(), -1, timeout,
                             "round-retry agreement barrier");
  }
  comm.transport().reset_inbound(comm.global_rank());
  if (!membership.recovery_barrier(timeout)) {
    throw comm::TimeoutError(-1, comm.global_rank(), -1, timeout,
                             "round-retry reset barrier");
  }
}

void CgxEngine::apply_view(const comm::WorldView& view) {
  const int active = view.active_count();
  CGX_CHECK_GT(active, 0);
  CGX_CHECK_LE(active, world_size_);
  active_world_ = active;
  applied_epoch_ = view.epoch;
  if (!options_.node_of.empty()) {
    // Restrict the launch topology to the survivors: ranks keep their
    // node, so a crash can leave nodes uneven and the shard ownership (and
    // with it the compressor count) follows the survivors.
    hier_.node_of =
        comm::Topology(options_.node_of).restrict(view.active).node_map();
  }
  const std::size_t count = chunk_compressor_count();
  // Fresh compressors for every ACTIVE global rank — the EF-drop contract:
  // the departed rank's residual can never be replayed, and a surviving
  // rank's residual may hold contributions from the aborted attempt, so
  // everyone restarts error feedback from zero. One-shot bounded gradient
  // perturbation, bit-identical across survivors (DESIGN.md §5h).
  for (int g : view.active) {
    for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
      reset_compressors(ranks_[static_cast<std::size_t>(g)], l, count);
    }
  }
  wire_bytes_cached_ = wire_bytes_per_rank(options_.scheme);
}

void CgxEngine::bucket_begin(comm::Comm& comm, std::span<float> fused,
                             std::span<const std::size_t> layers,
                             util::Rng& rng, int tag_base,
                             CollectiveWorkspace& ws) {
  RankState& state = ranks_[static_cast<std::size_t>(comm.global_rank())];
  if (!options_.node_of.empty()) {
    // Two-level begin: intra-node reduce-scatter plus the rail scatter.
    const int bucket = tag_base / comm::kBucketTagStride;
    for (std::size_t l : layers) {
      hierarchical_begin(comm, layout_.slice(fused, l), state.chunk_ptrs[l],
                         rng, hier_, ws, bucket);
    }
    return;
  }
  if (!supports_split()) return;  // Ring/Tree: all work happens in finish
  for (std::size_t l : layers) {
    compressed_sra_begin(comm, layout_.slice(fused, l), state.chunk_ptrs[l],
                         rng, ws, tag_base);
  }
}

void CgxEngine::bucket_finish(comm::Comm& comm, std::span<float> fused,
                              std::span<const std::size_t> layers,
                              util::Rng& rng, int tag_base,
                              CollectiveWorkspace& ws) {
  RankState& state = ranks_[static_cast<std::size_t>(comm.global_rank())];
  if (!options_.node_of.empty()) {
    const int bucket = tag_base / comm::kBucketTagStride;
    for (std::size_t l : layers) {
      hierarchical_finish(comm, layout_.slice(fused, l),
                          state.chunk_ptrs[l], rng, hier_, ws, bucket);
    }
    if (options_.average && active_world_ > 1) {
      const float inv = 1.0f / static_cast<float>(active_world_);
      for (std::size_t l : layers) {
        tensor::scale(layout_.slice(fused, l), inv);
      }
    }
    return;
  }
  const bool split = supports_split();
  for (std::size_t l : layers) {
    const std::span<float> slice = layout_.slice(fused, l);
    if (split) {
      compressed_sra_finish(comm, slice, state.chunk_ptrs[l], rng, ws,
                            tag_base);
    } else {
      compressed_allreduce(comm, slice, state.chunk_ptrs[l], rng,
                           options_.scheme, ws, tag_base);
    }
  }
  if (options_.average && active_world_ > 1) {
    // Per-slice averaging: multiplying each element by the same scalar is
    // bit-identical to the monolithic path's whole-buffer scale.
    const float inv = 1.0f / static_cast<float>(active_world_);
    for (std::size_t l : layers) tensor::scale(layout_.slice(fused, l), inv);
  }
}

void CgxEngine::packet_allreduce(comm::Comm& comm, std::span<float> fused,
                                 CollectiveWorkspace& ws) {
  if (packet_numel_ == 0) return;
  const std::span<float> packet = ws.floats(kSlotPacket, packet_numel_);
  std::size_t offset = 0;
  for (std::size_t l : filtered_layers_) {
    const auto slice = layout_.slice(std::span<const float>(fused), l);
    tensor::copy(slice, packet.subspan(offset, slice.size()));
    offset += slice.size();
  }
  comm::allreduce(comm, packet, options_.scheme,
                  ws.floats(kSlotCommScratch, packet_numel_));
  if (options_.average && active_world_ > 1) {
    tensor::scale(packet, 1.0f / static_cast<float>(active_world_));
  }
  offset = 0;
  for (std::size_t l : filtered_layers_) {
    auto slice = layout_.slice(fused, l);
    tensor::copy(packet.subspan(offset, slice.size()), slice);
    offset += slice.size();
  }
}

double CgxEngine::ef_residual_norm(int rank) const {
  // Summed (not root-of-sum-of-squares) across chunks: the controller only
  // watches the trend between replans, so any consistent aggregate works.
  double total = 0.0;
  const RankState& state = ranks_[static_cast<std::size_t>(rank)];
  for (const auto& chunks : state.per_layer) {
    for (const auto& c : chunks) {
      if (const auto* ef = dynamic_cast<const ErrorFeedback*>(c.get())) {
        total += ef->residual_norm();
      } else if (const auto* dgc = dynamic_cast<const DgcTopK*>(c.get())) {
        total += dgc->residual_norm();
      }
    }
  }
  return total;
}

std::size_t CgxEngine::scratch_high_water_bytes() const {
  std::size_t total = 0;
  for (const RankState& rank : ranks_) {
    total += rank.workspace.high_water_bytes();
    for (const auto& chunks : rank.per_layer) {
      for (const auto& c : chunks) total += c->scratch_bytes();
    }
  }
  return total;
}

double CgxEngine::layer_wire_bytes(std::size_t layer_index,
                                   comm::ReductionScheme scheme,
                                   bool compressed) const {
  const auto& info = layout_.layer(layer_index);
  const LayerCompression& cfg = resolved_[layer_index];
  const std::size_t rows = info.shape.empty() ? 0 : info.shape.front();
  const std::size_t chunk_numel =
      (info.numel + static_cast<std::size_t>(world_size_) - 1) /
      static_cast<std::size_t>(world_size_);
  const double chunk_bytes =
      compressed && cfg.method != Method::None
          ? static_cast<double>(wire_bytes(cfg, chunk_numel, rows))
          : 4.0 * static_cast<double>(chunk_numel);
  const double full_bytes =
      compressed && cfg.method != Method::None
          ? static_cast<double>(wire_bytes(cfg, info.numel, rows))
          : 4.0 * static_cast<double>(info.numel);
  return scheme_egress_bytes(scheme,
                             static_cast<std::size_t>(world_size_),
                             chunk_bytes, full_bytes);
}

double CgxEngine::wire_bytes_per_rank(comm::ReductionScheme scheme) const {
  double total = 0.0;
  for (std::size_t l = 0; l < resolved_.size(); ++l) {
    total += layer_wire_bytes(l, scheme, /*compressed=*/true);
  }
  return total;
}

double CgxEngine::raw_wire_bytes_per_rank(
    comm::ReductionScheme scheme) const {
  double total = 0.0;
  for (std::size_t l = 0; l < resolved_.size(); ++l) {
    total += layer_wire_bytes(l, scheme, /*compressed=*/false);
  }
  return total;
}

CommPlan CgxEngine::comm_plan(const simgpu::CostModel& cost,
                              double compress_gbps) const {
  CommPlan plan;
  plan.per_layer_s.assign(layout_.layer_count(), 0.0);
  const std::vector<int> devices = participating_devices(cost, world_size_);
  double fused_packet_bytes = 0.0;

  for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
    const auto& info = layout_.layer(l);
    const LayerCompression& cfg = resolved_[l];
    if (cfg.method == Method::None) {
      fused_packet_bytes += 4.0 * static_cast<double>(info.numel);
      continue;
    }
    const std::size_t rows = info.shape.empty() ? 0 : info.shape.front();
    const std::size_t chunk_numel =
        (info.numel + static_cast<std::size_t>(world_size_) - 1) /
        static_cast<std::size_t>(world_size_);
    const double chunk_wire =
        static_cast<double>(wire_bytes(cfg, chunk_numel, rows));
    const double full_wire =
        static_cast<double>(wire_bytes(cfg, info.numel, rows));
    const double raw_bytes = 4.0 * static_cast<double>(info.numel);
    const double kernel =
        compress_kernel_seconds(cfg.method, raw_bytes, compress_gbps);
    if (!options_.node_of.empty()) {
      // Heterogeneous two-level schedule (§4).
      plan.per_layer_s[l] =
          hierarchical_layer_seconds(cost, options_.node_of, cfg, info.numel,
                                     rows) +
          0.5 * kernel;
    } else {
      plan.per_layer_s[l] = scheme_seconds(cost, devices, options_.scheme,
                                           chunk_wire, full_wire) +
                            0.5 * kernel;
    }
    plan.kernel_contention_s += 0.5 * kernel;
  }

  if (fused_packet_bytes > 0.0) {
    plan.fused_packet_s = scheme_seconds(
        cost, devices, options_.scheme, fused_packet_bytes / world_size_,
        fused_packet_bytes);
  }
  plan.wire_bytes_per_rank = wire_bytes_per_rank(options_.scheme);
  return plan;
}

// ----------------------------------------------------------------- QNCCL

QncclEngine::QncclEngine(const tensor::LayerLayout& layout, unsigned bits,
                         std::size_t bucket_size, int world_size)
    : layout_(layout),
      bits_(bits),
      bucket_size_(bucket_size),
      world_size_(world_size) {
  CGX_CHECK_GT(world_size, 0);
  LayerCompression cfg;
  cfg.method = Method::Qsgd;
  cfg.bits = bits;
  cfg.bucket_size = bucket_size;
  ranks_.resize(static_cast<std::size_t>(world_size));
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].workspace.set_arena(&util::rank_arena(static_cast<int>(r)));
  }
  for (auto& rank : ranks_) {
    for (int c = 0; c < world_size; ++c) {
      rank.chunks.push_back(make_compressor(cfg, 0));
      rank.chunk_ptrs.push_back(rank.chunks.back().get());
    }
  }
}

void QncclEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                            util::Rng& rng) {
  CGX_CHECK_EQ(comm.size(), world_size_);
  // The blob path: one ring allreduce over the raw fused buffer, uniform
  // compression, no layer boundaries and no filtering.
  RankState& state = ranks_[static_cast<std::size_t>(comm.rank())];
  util::ScopedArena bind(util::rank_arena(comm.rank()));
  compressed_allreduce_ring(comm, fused, state.chunk_ptrs, rng,
                            state.workspace);
  if (world_size_ > 1) {
    tensor::scale(fused, 1.0f / static_cast<float>(world_size_));
  }
}

CommPlan QncclEngine::comm_plan(const simgpu::CostModel& cost,
                                double compress_gbps) const {
  // QNCCL sits under the framework's fused buckets (like the baseline);
  // each ~25 MB bucket is quantized as one blob inside the ring.
  constexpr double kBucketBytes = 25e6;
  CommPlan plan;
  plan.per_layer_s.assign(layout_.layer_count(), 0.0);
  if (world_size_ <= 1) return plan;
  const std::vector<int> devices = participating_devices(cost, world_size_);
  const QsgdCompressor probe(bits_, bucket_size_);
  // "Limitations in GPU resources imposed by NCCL itself ... lead to
  // non-negligible compression overhead" (§3): the kernels run at a
  // fraction of the native rate.
  const double nccl_kernel_rate = compress_gbps / 4.0;

  double bucket_numel = 0.0;
  auto flush = [&](std::size_t owner_layer) {
    if (bucket_numel <= 0.0) return;
    const auto chunk_numel = static_cast<std::size_t>(
        bucket_numel / world_size_ + 1.0);
    const double chunk_wire =
        static_cast<double>(probe.compressed_size(chunk_numel));
    const double kernel = compress_kernel_seconds(
        Method::Qsgd, 4.0 * bucket_numel, nccl_kernel_rate);
    plan.per_layer_s[owner_layer] +=
        2.0 * (world_size_ - 1) *
            cost.ring_step_seconds(devices, chunk_wire) +
        0.5 * kernel;
    plan.kernel_contention_s += 0.5 * kernel;
    plan.wire_bytes_per_rank +=
        2.0 * static_cast<double>(world_size_ - 1) * chunk_wire;
    bucket_numel = 0.0;
  };
  for (std::size_t i = layout_.layer_count(); i-- > 0;) {
    bucket_numel += static_cast<double>(layout_.layer(i).numel);
    if (4.0 * bucket_numel >= kBucketBytes) flush(i);
  }
  flush(0);
  return plan;
}

// ----------------------------------------------------------------- GRACE

GraceEngine::GraceEngine(const tensor::LayerLayout& layout, unsigned bits,
                         int world_size)
    : layout_(layout), bits_(bits), world_size_(world_size) {
  CGX_CHECK_GT(world_size, 0);
  ranks_.resize(static_cast<std::size_t>(world_size));
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].workspace.set_arena(&util::rank_arena(static_cast<int>(r)));
  }
  for (auto& rank : ranks_) {
    for (const auto& info : layout.layers()) {
      LayerCompression cfg;
      cfg.method = Method::Qsgd;
      cfg.bits = bits;
      cfg.bucket_size = info.numel;  // no bucketing: one scale per tensor
      rank.layers.push_back(make_compressor(cfg, 0));
    }
  }
}

void GraceEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                            util::Rng& rng) {
  CGX_CHECK_EQ(comm.size(), world_size_);
  const int n = comm.size();
  const int r = comm.rank();
  RankState& state = ranks_[static_cast<std::size_t>(r)];
  util::ScopedArena bind(util::rank_arena(r));
  CollectiveWorkspace& ws = state.workspace;

  // GRACE's reduction: compress locally, allgather everyone's payload,
  // decompress all of them and sum (no aggregating rank, every rank does
  // the full work).
  for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
    std::span<float> slice = layout_.slice(fused, l);
    Compressor& compressor = *state.layers[l];
    const std::span<std::byte> mine =
        ws.bytes(kSlotGraceMine, compressor.compressed_size(slice.size()));
    const std::size_t written = compressor.compress(slice, mine, rng);
    const std::span<const std::byte> payload = mine.first(written);
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      comm.send(p, payload, kGraceTag);
    }
    const std::span<float> decompressed =
        ws.floats(kSlotGraceDecompressed, slice.size());
    // Sum in rank order so all ranks produce bit-identical results; our own
    // contribution also goes through its payload.
    std::fill(slice.begin(), slice.end(), 0.0f);
    const std::span<std::byte> incoming =
        ws.bytes(kSlotGraceIncoming, payload.size());
    for (int p = 0; p < n; ++p) {
      if (p == r) {
        compressor.decompress(payload, decompressed);
      } else {
        comm.recv(p, incoming, kGraceTag);
        compressor.decompress(incoming, decompressed);
      }
      tensor::add_inplace(slice, decompressed);
    }
  }
  if (n > 1) tensor::scale(fused, 1.0f / static_cast<float>(n));
}

CommPlan GraceEngine::comm_plan(const simgpu::CostModel& cost,
                                double compress_gbps) const {
  CommPlan plan;
  plan.per_layer_s.assign(layout_.layer_count(), 0.0);
  const std::vector<int> devices = participating_devices(cost, world_size_);
  for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
    const auto& info = layout_.layer(l);
    // INT8 wire values regardless of the quantization width (§6.2), plus
    // one fp32 scale per tensor.
    const double wire = static_cast<double>(info.numel) + 4.0;
    // Every rank decompresses all N payloads (no aggregating rank), so the
    // kernel work scales with the world size.
    const double kernel = compress_kernel_seconds(
        Method::Qsgd,
        static_cast<double>(world_size_) * 2.0 *
            static_cast<double>(info.numel),
        compress_gbps);
    plan.per_layer_s[l] = cost.allgather_seconds(devices, wire) +
                          0.5 * kernel;
    plan.kernel_contention_s += 0.5 * kernel;
    plan.wire_bytes_per_rank +=
        static_cast<double>(world_size_ - 1) * wire;
  }
  return plan;
}

// ----------------------------------------------------------------- baseline

BaselineEngine::BaselineEngine(const tensor::LayerLayout& layout,
                               int world_size, bool fp16_wire)
    : layout_(layout), world_size_(world_size), fp16_wire_(fp16_wire) {
  CGX_CHECK_GT(world_size, 0);
  ranks_.resize(static_cast<std::size_t>(world_size));
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].set_arena(&util::rank_arena(static_cast<int>(r)));
  }
}

void BaselineEngine::allreduce(comm::Comm& comm, std::span<float> fused,
                               util::Rng& rng) {
  (void)rng;
  CGX_CHECK_EQ(comm.size(), world_size_);
  CollectiveWorkspace& ws = ranks_[static_cast<std::size_t>(comm.rank())];
  // NCCL reduces FP16 natively when the framework trains in mixed
  // precision; numerically we keep float accumulation (NCCL sums in the
  // wire type but the difference is irrelevant here — the sim path charges
  // the halved wire size).
  for (std::size_t l = 0; l < layout_.layer_count(); ++l) {
    std::span<float> slice = layout_.slice(fused, l);
    comm::allreduce(comm, slice, comm::ReductionScheme::Ring,
                    ws.floats(kSlotCommScratch, slice.size()));
  }
  if (world_size_ > 1) {
    tensor::scale(fused, 1.0f / static_cast<float>(world_size_));
  }
}

CommPlan BaselineEngine::comm_plan(const simgpu::CostModel& cost,
                                   double compress_gbps) const {
  (void)compress_gbps;
  // DDP/Horovod fuse gradients into ~25 MB buckets before calling NCCL
  // (Tensor Fusion / DDP gradient buckets): one ring allreduce per bucket,
  // amortising per-message latency across layers. Buckets fill in gradient
  // PRODUCTION order (reverse layout order) and fire when the last layer of
  // the bucket materialises, so the bucket's cost is charged to the
  // lowest-index layer it contains.
  constexpr double kBucketBytes = 25e6;
  CommPlan plan;
  plan.per_layer_s.assign(layout_.layer_count(), 0.0);
  if (world_size_ <= 1) return plan;
  const std::vector<int> devices = participating_devices(cost, world_size_);
  const double elem_bytes = fp16_wire_ ? 2.0 : 4.0;

  double bucket_bytes = 0.0;
  auto flush = [&](std::size_t owner_layer) {
    if (bucket_bytes <= 0.0) return;
    const double chunk = bucket_bytes / world_size_;
    plan.per_layer_s[owner_layer] +=
        2.0 * (world_size_ - 1) * cost.ring_step_seconds(devices, chunk);
    plan.wire_bytes_per_rank +=
        2.0 * static_cast<double>(world_size_ - 1) * chunk;
    bucket_bytes = 0.0;
  };
  for (std::size_t i = layout_.layer_count(); i-- > 0;) {
    bucket_bytes += elem_bytes * static_cast<double>(layout_.layer(i).numel);
    if (bucket_bytes >= kBucketBytes) flush(i);
  }
  flush(0);
  return plan;
}

}  // namespace cgx::core
