// Workload twolevel_bert_w16_sim: core::CgxEngine with EngineOptions::
// node_of (hierarchical SRA) over comm::SimNetTransport — 4 nodes x 4
// ranks at 40 Gb/s, the paper's Genesis cluster shape — on a 1/32-scale
// BERT-base gradient. The only workload on comm.simnet, comm.topology and
// the two-level leader fan-in/out.
//
// Step time here is VIRTUAL: SimNet's clock charges α-β wire time plus NIC
// and fabric contention, deterministically (adds and max-merges commute),
// so it is exact even with 16 rank threads on fewer cores. The clock
// counts wire time only, so compressor speed does not move it. Wall-clock
// numbers of this workload appear only in the traced per-layer metrics.
#include <memory>
#include <optional>

#include "bert_inputs.h"
#include "comm/simnet.h"
#include "comm/transports.h"
#include "comm/world.h"
#include "core/engine.h"
#include "harness.h"
#include "traced_transport.h"

namespace perfbench {
namespace {

constexpr int kWorld = 16;
constexpr int kRanksPerNode = 4;
constexpr double kScale = 32.0;
constexpr double kInterGbps = 40.0;
constexpr int kWarmup = 1;
constexpr double kNominalStepsPerS = 8.0;

}  // namespace

Result run_twolevel_bert(const RunOptions& opt) {
  Result res;
  const models::PaperModel bert = models::bert_base();
  const SyncInputs in =
      make_sync_inputs(bert_layout(bert, kScale, opt.seed), kWorld, opt.seed);
  const std::size_t numel = in.layout.total_numel();

  const comm::Topology topo = comm::Topology::grouped(kWorld, kRanksPerNode);
  comm::SimNetParams params;
  params.inter_gbps = kInterGbps;
  comm::ShmTransport shm(kWorld);
  comm::SimNetTransport net(shm, topo, params);
  std::optional<TracedTransport> traced;
  if (opt.trace) traced.emplace(net);
  comm::Transport& wire = opt.trace ? static_cast<comm::Transport&>(*traced)
                                    : static_cast<comm::Transport&>(net);
  core::EngineOptions options;
  options.node_of = topo.node_map();
  core::CgxEngine engine(in.layout, core::CompressionConfig::cgx_default(),
                         kWorld, options);

  const int timed =
      opt.setup_only ? 0
                     : static_cast<int>(steps_for(opt.seconds, kNominalStepsPerS, 10));
  std::vector<double> vstep_ms;
  vstep_ms.reserve(static_cast<std::size_t>(timed));
  std::array<std::uint64_t, kWorld> hashes{};
  std::array<bool, kWorld> finite{};
  double rel_error = 0.0, setup_s = 0.0;
  Accum allreduce_ms;

  comm::run_world(wire, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    util::Rng rng = util::Rng(opt.seed).split(50 + static_cast<std::uint64_t>(rank));
    const std::vector<float>& grad = in.grads[static_cast<std::size_t>(rank)];
    std::vector<float> fused(numel);
    const auto step = [&](std::int64_t id, bool timing) {
      std::copy(grad.begin(), grad.end(), fused.begin());
      const std::int64_t t0 = timing ? now_ns() : 0;
      engine.allreduce(comm, fused, rng);
      if (timing) {
        const std::int64_t t1 = now_ns();
        allreduce_ms.add(rank, 1e-6 * static_cast<double>(t1 - t0));
        tracer().record("core.engine.allreduce", rank, id, t0, t1);
      }
    };
    for (int i = 0; i < kWarmup; ++i) step(i - kWarmup, false);
    comm.barrier();
    if (rank == 0) {
      setup_s = since_start_s();
      net.clock().reset();  // fabric quiesced between the barriers
      wire.recorder().reset();
      if (traced) traced->reset();
      set_alloc_window(true);
    }
    comm.barrier();
    std::uint64_t last_ns = 0;
    for (int i = 0; i < timed; ++i) {
      // Timed untraced too: the wall time per call is the basis of the
      // tracing overhead (the virtual step time cannot show it).
      step(i, true);
      // Every rank has finished step i before rank 0 reads the clock, and
      // none starts step i + 1 until it has; barriers carry no traffic.
      comm.barrier();
      if (rank == 0) {
        const std::uint64_t now = net.clock().elapsed_ns();
        vstep_ms.push_back(1e-6 * static_cast<double>(now - last_ns));
        last_ns = now;
      }
      comm.barrier();
    }
    if (rank == 0) set_alloc_window(false);
    comm.barrier();
    hashes[static_cast<std::size_t>(rank)] = fnv1a(fused);
    finite[static_cast<std::size_t>(rank)] = all_finite(fused);
    if (rank == 0) rel_error = rel_l2_error(fused, in.mean);
  });

  res.metrics["setup_s"] = setup_s;
  if (opt.setup_only) return res;
  res.attempted = static_cast<std::uint64_t>(timed);
  res.failed = res.attempted - vstep_ms.size();
  for (int r = 0; r < kWorld; ++r) {
    res.check(finite[static_cast<std::size_t>(r)],
              "non-finite value in a synchronized gradient");
    res.check(hashes[static_cast<std::size_t>(r)] == hashes[0],
              "ranks disagree on the synchronized gradient");
  }
  // Members fold into their leader in FP32; the compressed SRA runs over
  // the node sums.
  std::vector<std::vector<float>> node_sums(
      static_cast<std::size_t>(topo.num_nodes()), std::vector<float>(numel));
  for (int r = 0; r < kWorld; ++r) {
    auto& sum = node_sums[static_cast<std::size_t>(topo.node_of(r))];
    const auto& g = in.grads[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < numel; ++i) sum[i] += g[i];
  }
  check_sync_error(res, rel_error,
                   expected_sra_rel_error(in.layout, core::CompressionConfig::cgx_default(),
                                          node_sums, in.mean, kWorld, opt.seed));

  const auto& clock = net.clock();
  const double total_ms = 1e-6 * static_cast<double>(clock.elapsed_ns());
  const double steps = static_cast<double>(timed);
  res.metrics["step_ms_p50"] = median(vstep_ms);
  res.metrics["step_ms_p95"] = percentile(vstep_ms, 95.0);
  res.metrics["samples_per_s"] =
      bert.items_per_step_per_gpu * kWorld * steps / (1e-3 * total_ms);
  res.metrics["quality_err"] = rel_error;
  res.metrics["wire_bytes_per_step"] =
      static_cast<double>(wire.recorder().total_bytes()) / kWorld / steps;
  res.metrics["steps"] = steps;
  res.metrics["wall_step_ms"] = allreduce_ms.mean();
  res.metrics["util.allocs_per_step"] =
      static_cast<double>(allocs_in_window()) / steps;
  if (opt.trace) {
    auto& m = res.metrics;
    m["core.engine.allreduce_ms"] = allreduce_ms.mean();
    m["core.engine.scratch_mb"] =
        static_cast<double>(engine.scratch_high_water_bytes()) / (1 << 20);
    std::uint64_t nic = 0, fabric = 0;
    for (int node = 0; node < topo.num_nodes(); ++node) {
      nic = std::max({nic, clock.nic_tx_busy_ns(node), clock.nic_rx_busy_ns(node)});
      fabric = std::max(fabric, clock.fabric_busy_ns(node));
    }
    m["comm.simnet.vstep_ms"] = total_ms / steps;
    m["comm.simnet.nic_busy_ms_max"] = 1e-6 * static_cast<double>(nic) / steps;
    m["comm.simnet.fabric_busy_ms_max"] = 1e-6 * static_cast<double>(fabric) / steps;
    std::size_t cross = 0, intra = 0;
    for (int a = 0; a < kWorld; ++a) {
      for (int b = 0; b < kWorld; ++b) {
        const std::size_t bytes = wire.recorder().bytes_between(a, b);
        (topo.same_node(a, b) ? intra : cross) += bytes;
      }
    }
    m["comm.simnet.cross_node_mb"] = static_cast<double>(cross) / (1 << 20) / steps;
    m["comm.simnet.intra_node_mb"] = static_cast<double>(intra) / (1 << 20) / steps;
    const auto c = traced->totals();
    const double rank_steps = steps * kWorld;
    m["comm.transport.send_calls"] = static_cast<double>(c.send_calls) / rank_steps;
    m["comm.transport.send_mb"] =
        static_cast<double>(c.send_bytes) / (1 << 20) / rank_steps;
    m["comm.transport.recv_wait_ms"] = 1e-6 * static_cast<double>(c.wait_ns) / rank_steps;
    m["comm.transport.direct_pulls"] = static_cast<double>(c.direct_pulls) / rank_steps;
  }
  return res;
}

}  // namespace perfbench
