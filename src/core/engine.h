// The CGX communication engine and the two baseline engines it is evaluated
// against (QNCCL, GRACE).
//
// CgxEngine is the paper's main artefact (§3/§4): it owns the per-layer
// compression policy, routes filtered layers (bias/norm) through a fused
// full-precision packet, runs the compression-aware SRA/Ring/Tree
// collectives for everything else, and exposes the same work as an analytic
// communication plan for the performance model ("real collectives,
// simulated clocks").
//
// QncclEngine reproduces the QNCCL artefact's constraints (§3 "The QNCCL
// Library"): compression is applied uniformly to the raw fused buffer — no
// layer boundaries, no filters, ring reduction only, and a GPU-resource
// penalty on the compression kernels imposed by running inside NCCL.
//
// GraceEngine reproduces GRACE's QSGD configuration as characterised in
// §6.2: no bucketing (one scaling per tensor), allgather-based reduction
// instead of an optimized allreduce, and INT8 wire values even at 4-bit
// quantization.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "core/compressed_allreduce.h"
#include "core/compression_config.h"
#include "core/hierarchical.h"
#include "simgpu/cost_model.h"
#include "tensor/layer_layout.h"

namespace cgx::comm {
class FaultInjector;  // see comm/fault.h
}  // namespace cgx::comm

namespace cgx::core {

struct EngineOptions {
  comm::ReductionScheme scheme =
      comm::ReductionScheme::ScatterReduceAllgather;
  bool average = true;  // divide the sum by world size
  // Heterogeneous multi-node mode (§4 "Backend Details"): FP32 intra-node
  // reduce-scatter (peer-direct where the link allows), compressed SRA
  // with node-boundary re-compression along each shard's rail across
  // nodes, FP32 intra-node allgather (core/hierarchical.h).
  // node_of[rank] -> node id; empty = flat (single-level) communication.
  std::vector<int> node_of;
  // Intra-call bucket parallelism for compression kernels: layers with at
  // least `compression_threading_min_numel` elements split their buckets
  // across this pool (payloads stay bit-identical to the serial path; see
  // qsgd.h). Null = serial compression.
  util::ThreadPool* compression_pool = nullptr;
  std::size_t compression_threading_min_numel = 1 << 16;
  // Graceful degradation: how many times a round (CgxEngine::allreduce, or
  // one AsyncGradientEngine submission) is retried after a structured comm
  // failure (CommError) before rethrowing. 0 (the default) is fail-fast and
  // costs nothing; > 0 additionally keeps a pre-round snapshot of the
  // round's layers in the workspace so a half-reduced round can be rolled
  // back, and fences each round's commit. Elastic worlds retry at least
  // 2 x world times (see run_round).
  int max_round_retries = 0;
  // Upper bound on each recovery-protocol wait (agreement barriers, the
  // membership vote deadline). 0 = derive from the comm policy: twice its
  // timeout when bounded, else 1000 ms — agreement must stay bounded even
  // under an unbounded policy, or a dead peer hangs the retry forever.
  std::chrono::milliseconds recovery_timeout{0};
  // Optional fault harness hook: lets tests fail a specific round
  // deterministically (FaultInjector::schedule_round_failure). Not owned.
  comm::FaultInjector* injector = nullptr;
};

// What happened to one rank's most recent CgxEngine::allreduce call or
// AsyncGradientEngine step: how many attempts it took, which links failed
// with what, and whether the step finally succeeded. Incidents are
// recorded only on failure paths, so the fault-free steady state allocates
// nothing here.
struct StepReport {
  struct Incident {
    int src;
    int dst;
    int tag;
    std::string what;
  };
  // Per-phase wall-clock breakdown of one streamed step, filled by
  // AsyncGradientEngine (the synchronous engines leave it zeroed). The
  // overlap win is `comm_s - exposed_comm_s`: communication that ran while
  // the backward pass was still producing gradients. See README "Reading
  // the StepReport timing breakdown".
  struct Timing {
    double compute_s = 0.0;       // begin_step -> last bucket submission
    double compress_s = 0.0;      // round-1 compression inside bucket_begin
    double comm_s = 0.0;          // total busy time on the bucket comm path
    double exposed_comm_s = 0.0;  // wait_all() blocking time (not hidden)
    // exposed_comm_s as a percentage of comm_s (0 when comm_s == 0): the
    // single number the DAG-executor benches gate on — lower means more of
    // the communication ran behind compute.
    double exposed_comm_pct = 0.0;
    // Per-submission launch/finish timestamps, seconds since begin_step,
    // indexed in bucket-plan order (buckets 0..N-1, then the packet).
    // bucket == -1 marks a submission that never launched (error paths).
    // Sized by the engine at (re)build time and reset field-wise each
    // step, so the streamed hot path stays allocation-free.
    struct BucketEvent {
      int bucket = -1;      // plan index (packet = buckets.size())
      int lane = 0;         // comm lane that ran the collective
      double launch_s = 0.0;
      double finish_s = 0.0;
    };
    std::vector<BucketEvent> buckets;
  };
  bool ok = true;
  int attempts = 0;  // 1 = clean first try
  int retries = 0;
  // Membership (comm/membership.h): the world this step actually ran in.
  // Fixed worlds report epoch 0 and the launch world with no movement. `departed`/`joined` compare against this rank's previous
  // step, so the step that absorbed a crash reports departed > 0 and the
  // step after a readmission reports joined > 0.
  std::uint64_t epoch = 0;
  int world = 0;
  int departed = 0;
  int joined = 0;
  // Compressed egress per rank for this step under the engine's current
  // policy (cached at rebuild time — wire_bytes_per_rank() is too expensive
  // to evaluate per step). The adaptive policy controller's telemetry.
  double wire_bytes = 0.0;
  std::vector<Incident> incidents;
  Timing timing;
};

// Analytic communication plan for one training step, consumed by
// simgpu::simulate_step. Costs are per layer in LAYOUT order; the fused
// full-precision packet ships once, after the last gradient materialises.
struct CommPlan {
  std::vector<double> per_layer_s;
  double fused_packet_s = 0.0;
  double wire_bytes_per_rank = 0.0;  // total egress per rank per step
  // Compression kernels compete with training compute for the device
  // (Appendix A): this portion of the kernel time extends the compute
  // timeline rather than the (overlappable) communication stream.
  double kernel_contention_s = 0.0;
};

class GradientEngine {
 public:
  virtual ~GradientEngine() = default;
  // Real path: collectively reduce (average) each rank's fused gradient.
  // Called by every rank's thread with its own Comm handle and buffer.
  virtual void allreduce(comm::Comm& comm, std::span<float> fused,
                         util::Rng& rng) = 0;
  // Simulated path: the communication plan on a given machine.
  // `compress_gbps` is the device's effective quantization kernel rate.
  virtual CommPlan comm_plan(const simgpu::CostModel& cost,
                             double compress_gbps) const = 0;
  virtual std::string name() const = 0;
};

class CgxEngine final : public GradientEngine {
 public:
  CgxEngine(const tensor::LayerLayout& layout, CompressionConfig config,
            int world_size, EngineOptions options = {});

  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "CGX"; }

  // Policy access; call rebuild() after mutating so per-layer operators
  // match the new policy (the adaptive assigner uses this every
  // re-assignment period). Rebuild is differential: only layers whose
  // resolved policy actually changed get fresh compressors, so warmed
  // workspaces and untouched compressor scratch carry across a policy
  // switch and the steady state stays allocation-free.
  CompressionConfig& config() { return config_; }
  const CompressionConfig& config() const { return config_; }
  void rebuild();

  const tensor::LayerLayout& layout() const { return layout_; }
  int world_size() const { return world_size_; }

  // Resolved policy per layer (after filters), for inspection and tests.
  const std::vector<LayerCompression>& resolved() const { return resolved_; }

  // Layers routed to the fused full-precision packet, and its total numel.
  const std::vector<std::size_t>& filtered_layers() const {
    return filtered_layers_;
  }
  std::size_t packet_numel() const { return packet_numel_; }
  const EngineOptions& options() const { return options_; }

  // ---- Streaming bucket entry points (used by AsyncGradientEngine) ----
  //
  // A bucket is a subset of this engine's COMPRESSED layers; the caller
  // runs each bucket's collective on its own tag range (comm/tagspace.h)
  // and its own workspace arena, so several buckets can be in flight at
  // once. bucket_begin is the non-blocking half (SRA round-1 compress +
  // buffered sends; a no-op for Ring/Tree, whose hop structure has no
  // split point); bucket_finish completes the reduction and applies the
  // 1/world averaging to the bucket's slices. allreduce() itself is one
  // packet_allreduce plus begin + finish of a single-layer bucket 0 per
  // compressed layer, in layout order, on the caller's RNG; the streamed
  // plan gives each bucket its own RNG stream instead. In two-level mode
  // (node_of set) the bucket runs hierarchical_begin/finish on its own tag
  // lane, so bucket k+1's reduce-scatter on one comm lane overlaps bucket
  // k's inter-node drain on another.
  void bucket_begin(comm::Comm& comm, std::span<float> fused,
                    std::span<const std::size_t> layers, util::Rng& rng,
                    int tag_base, CollectiveWorkspace& ws);
  void bucket_finish(comm::Comm& comm, std::span<float> fused,
                     std::span<const std::size_t> layers, util::Rng& rng,
                     int tag_base, CollectiveWorkspace& ws);
  // The filtered layers' fused FP32 packet as one standalone collective
  // (gather -> uncompressed allreduce -> scatter + averaging).
  void packet_allreduce(comm::Comm& comm, std::span<float> fused,
                        CollectiveWorkspace& ws);
  // True when bucket_begin may run ahead of the previous bucket's finish
  // on the same comm lane (compression/transfer pipelining): flat SRA,
  // whose begin half only compresses and sends. A two-level begin waits
  // for its node peers' begins, so running it ahead could deadlock against
  // a peer whose lane is still inside the previous bucket's finish.
  bool supports_split() const {
    return options_.scheme ==
               comm::ReductionScheme::ScatterReduceAllgather &&
           options_.node_of.empty();
  }

  // The retry scope every round in the engine runs through: allreduce()
  // over all layers, and AsyncGradientEngine for each bucket and for the
  // packet. Calls attempt() until it succeeds or the retry budget is spent:
  //
  //   * The budget: max_round_retries on a fixed world; at least
  //     2 x world on a world that admits departures (every crash consumes
  //     a retry and up to world-1 ranks can die).
  //   * Retries off (budget 0, a fixed world with max_round_retries <= 0):
  //     one attempt, no commit fence, no snapshot copy, no injector
  //     lookup; a CommError is recorded in `report` and rethrown.
  //   * Retries on: `rollback`'s layers of `fused` are snapshotted into
  //     `ws` before the first attempt and restored after each failed one
  //     (an empty list means the attempt re-reads its inputs, as the
  //     packet does). `round` keys FaultInjector::round_fails. An attempt
  //     only commits once every current rank passes the commit fence (the
  //     Membership step gate); between attempts every rank runs
  //     reshard_world().
  //
  // `report_mutex` guards `report` when several comm lanes share it; null
  // when one thread owns the report. Every rank must run the same rounds.
  template <typename Attempt>
  void run_round(comm::Comm& comm, std::span<float> fused,
                 std::uint64_t round, std::span<const std::size_t> rollback,
                 CollectiveWorkspace& ws, StepReport& report,
                 std::mutex* report_mutex, const Attempt& attempt) {
    run_round(comm, fused, round, rollback, ws, report, report_mutex,
              [](const void* a) { (*static_cast<const Attempt*>(a))(); },
              &attempt);
  }

  // Rebuilds this engine's collective plans for a freshly published
  // survivor view: shrinks (or re-expands) the active world, restricts the
  // two-level topology to the survivors (whose nodes may come out uneven;
  // shard ownership follows), and gives every surviving rank fresh
  // compressors — deliberately dropping all error-feedback residuals (the
  // departed rank's residual can never be replayed, so survivors take a
  // bounded one-shot gradient perturbation instead of a permanent bias;
  // DESIGN.md §5h). Runs on the membership delta leader's thread while all
  // other participants are parked at the recovery gate.
  void apply_view(const comm::WorldView& view);

  // World the next allreduce will run in (shrinks/grows with re-shards).
  int active_world() const { return active_world_; }

  // Bytes each rank puts on the wire per step (compressed), and the FP32
  // baseline's, for compression-ratio reporting (Fig. 5b / Table 7).
  double wire_bytes_per_rank(comm::ReductionScheme scheme) const;
  double raw_wire_bytes_per_rank(comm::ReductionScheme scheme) const;

  // wire_bytes_per_rank(options().scheme), cached at rebuild()/apply_view()
  // time so StepReport::wire_bytes costs nothing per step.
  double cached_wire_bytes() const { return wire_bytes_cached_; }

  // Total L2 norm of `rank`'s unsent compression residuals (ErrorFeedback
  // residuals + DGC velocity stores, summed over layer chunks). Walks every
  // compressor, so call it at replan boundaries, not per step.
  double ef_residual_norm(int rank) const;

  // Total scratch held across all ranks: per-rank workspace high-water
  // marks plus compressor-internal symbol buffers. Monotone; the
  // zero-allocation test asserts it stabilizes after the first step.
  std::size_t scratch_high_water_bytes() const;

  // What happened to `rank`'s most recent allreduce call (attempts, retried
  // rounds, failed links). Valid after that rank's call returned or threw.
  const StepReport& last_step_report(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].report;
  }

  // Fills `report`'s world fields (epoch, world, departed/joined against
  // global rank `rank`'s previous step) and wire_bytes. Every step that
  // reports through a StepReport calls it once, on success and failure.
  void finish_report(int rank, StepReport& report);

 private:
  struct RankState {
    // state[layer][chunk] — stable chunk->compressor binding (see
    // compressed_allreduce.h).
    std::vector<std::vector<std::unique_ptr<Compressor>>> per_layer;
    // Raw-pointer view of per_layer, rebuilt alongside it so allreduce()
    // never materializes a pointer vector per call.
    std::vector<std::vector<Compressor*>> chunk_ptrs;
    CollectiveWorkspace workspace;
    StepReport report;
    std::uint64_t rounds = 0;  // allreduce call index (fault-round keying)
    int last_world = 0;        // world of this rank's previous step (0 =
                               // never stepped); feeds StepReport movement
  };

  void run_round(comm::Comm& comm, std::span<float> fused,
                 std::uint64_t round, std::span<const std::size_t> rollback,
                 CollectiveWorkspace& ws, StepReport& report,
                 std::mutex* report_mutex, void (*body)(const void*),
                 const void* context);

  // Round-retry recovery protocol, run by run_round() between attempts,
  // over the comm's Membership (comm/membership.h): a transient fault runs
  // a deadline-bounded agreement / per-rank inbound reset / second
  // agreement on the recovery gate; a crash (only on a world that admits
  // departures) runs survivor agreement and re-shards the world (apply_view
  // rebuilds this engine's plans), and the retried attempt runs in the
  // shrunken world. Throws TimeoutError if agreement cannot be reached.
  // All surviving ranks must call it together.
  void reshard_world(comm::Comm& comm);
  std::chrono::milliseconds derived_recovery_timeout(
      const comm::CommPolicy& pol) const;

  // Compressors each rank binds per compressed layer in the current world.
  std::size_t chunk_compressor_count() const;
  // Replaces rank's compressors for layer l with `count` fresh ones (none
  // for a filtered layer).
  void reset_compressors(RankState& rank, std::size_t l, std::size_t count);

  double layer_wire_bytes(std::size_t layer_index,
                          comm::ReductionScheme scheme, bool compressed) const;

  tensor::LayerLayout layout_;  // owned copy: engines outlive callers' layouts
  CompressionConfig config_;
  int world_size_;
  EngineOptions options_;
  // Two-level routing options, built once in rebuild() so the per-call hot
  // path never copies the node map (zero steady-state allocations).
  HierarchicalOptions hier_;
  std::vector<LayerCompression> resolved_;
  std::vector<std::size_t> all_layers_;       // 0..L-1: allreduce rollback
  std::vector<std::size_t> filtered_layers_;  // layers routed to FP32
  std::size_t packet_numel_ = 0;              // total numel of filtered layers
  // Elastic membership: the currently active world (== world_size_ until a
  // re-shard shrinks it) and the epoch of the last applied view. ranks_
  // stays keyed by GLOBAL rank — a survivor keeps its slot across shrinks.
  int active_world_ = 0;
  std::uint64_t applied_epoch_ = 0;
  double wire_bytes_cached_ = 0.0;  // see cached_wire_bytes()
  std::vector<RankState> ranks_;
};

class QncclEngine final : public GradientEngine {
 public:
  // The blob sees no layer names: one uniform quantization policy.
  QncclEngine(const tensor::LayerLayout& layout, unsigned bits,
              std::size_t bucket_size, int world_size);

  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "QNCCL"; }

 private:
  struct RankState {
    std::vector<std::unique_ptr<Compressor>> chunks;
    std::vector<Compressor*> chunk_ptrs;
    CollectiveWorkspace workspace;
  };

  tensor::LayerLayout layout_;
  unsigned bits_;
  std::size_t bucket_size_;
  int world_size_;
  std::vector<RankState> ranks_;
};

class GraceEngine final : public GradientEngine {
 public:
  GraceEngine(const tensor::LayerLayout& layout, unsigned bits,
              int world_size);

  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "GRACE"; }

 private:
  struct RankState {
    std::vector<std::unique_ptr<Compressor>> layers;
    CollectiveWorkspace workspace;
  };

  tensor::LayerLayout layout_;
  unsigned bits_;
  int world_size_;
  std::vector<RankState> ranks_;
};

// The uncompressed Horovod-NCCL / PyTorch-DDP baseline: plain ring
// allreduce of the fused FP32 buffer, layer by layer.
class BaselineEngine final : public GradientEngine {
 public:
  explicit BaselineEngine(const tensor::LayerLayout& layout, int world_size,
                          bool fp16_wire = false);

  void allreduce(comm::Comm& comm, std::span<float> fused,
                 util::Rng& rng) override;
  CommPlan comm_plan(const simgpu::CostModel& cost,
                     double compress_gbps) const override;
  std::string name() const override { return "NCCL-baseline"; }

 private:
  tensor::LayerLayout layout_;
  int world_size_;
  bool fp16_wire_;
  std::vector<CollectiveWorkspace> ranks_;  // per-rank allreduce scratch
};

}  // namespace cgx::core
