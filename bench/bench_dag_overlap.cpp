// DAG-executor overlap win on a branchy model (dependency-engine tentpole
// bench).
//
// Runs the REAL streaming engine on the scaled TwoTower profile in a
// latency-bound regime: a FaultyTransport blanket send-delay models a
// network where every message costs wire latency that a single comm thread
// must serialize but two comm lanes overlap. Backward compute is
// sleep-modelled; the two tower branches are independent, so the DAG
// executor (core::DepEngine, 2 workers) differentiates them concurrently
// and releases each gradient bucket the moment its true producers finish,
// while the sequential-hook comparator walks the layers in strict reverse
// order on the training thread and drains one comm lane.
//
// Three modes per world size, identical collectives and seeds throughout:
//   inline — overlap off, clean wire; the bit-identity reference.
//   seq    — sequential-hook streaming, 1 lane (the legacy PR-4 path).
//   dag    — DepEngine backward, 2 comm lanes.
//
// Reports per-mode step time and the StepReport exposed-comm breakdown,
// checks both streamed modes reproduce the inline bits exactly, and writes
// results/BENCH_dag.json. Target: at world 8 the DAG executor cuts
// exposed-comm %% by >= 20%% relative vs sequential hooks. `--smoke` runs
// one tiny configuration (used by tools/run_checks.sh bench-smoke).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/overlap_common.h"
#include "comm/fault.h"
#include "core/dep_engine.h"
#include "util/table.h"
#include "util/threadpool.h"

using namespace cgx;

namespace {

using clock_type = std::chrono::steady_clock;

enum class Mode { kInline, kSeq, kDag };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kInline:
      return "inline";
    case Mode::kSeq:
      return "seq-hook";
    case Mode::kDag:
      return "dag";
  }
  return "?";
}

struct ModeResult {
  double step_s = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double exposed_s = 0.0;
  double exposed_pct = 0.0;
  std::size_t buckets = 0;
  // Every rank's final reduced buffer, for bit-identity checks.
  std::vector<std::vector<float>> finals;
};

struct BenchConfig {
  int world = 8;
  std::size_t bucket_bytes = std::size_t{16} << 10;
  double param_scale = 256.0;
  double compute_comm_ratio = 0.55;
  std::chrono::microseconds wire_delay{300};
  int calib_steps = 2;
  int timed_steps = 5;
};

// Fresh deterministic per-step gradient; identical across modes so the
// final buffers can be memcmp'd.
std::vector<float> rank_gradient(const tensor::LayerLayout& layout, int rank,
                                 int round) {
  util::Rng rng(4000 + 100 * static_cast<std::uint64_t>(round) +
                static_cast<std::uint64_t>(rank));
  std::vector<float> g(layout.total_numel());
  for (auto& v : g) v = static_cast<float>(rng.next_gaussian());
  return g;
}

// Sleeps sized per layer from the total backward budget, proportional to
// layer numel (the synthetic TwoTower towers dominate, as intended).
std::vector<double> layer_sleeps(const tensor::LayerLayout& layout,
                                 double backward_total_s) {
  std::vector<double> sleeps(layout.layer_count(), 0.0);
  const double total = static_cast<double>(layout.total_numel());
  for (std::size_t l = 0; l < layout.layer_count(); ++l) {
    sleeps[l] = backward_total_s *
                static_cast<double>(layout.layer(l).numel) / total;
  }
  return sleeps;
}

bool layer_in_tower(const tensor::LayerLayout& layout, std::size_t l,
                    int tower) {
  const std::string prefix = "t" + std::to_string(tower) + ".";
  return layout.layer(l).name.rfind(prefix, 0) == 0;
}

// Burns `budget` of modelled compute. Sleeps when the budget clears the
// syscall floor; spins the remainder so compute time always elapses like a
// GPU kernel would.
void burn(double budget_s) {
  const auto deadline =
      clock_type::now() + std::chrono::duration_cast<clock_type::duration>(
                              std::chrono::duration<double>(budget_s));
  if (budget_s > 200e-6) {
    std::this_thread::sleep_until(deadline);
  } else {
    while (clock_type::now() < deadline) {
    }
  }
}

// One full run of one mode: `steps` streamed steps over fresh per-step
// gradients, timing averaged over the post-warmup window.
ModeResult run_mode(Mode mode, const BenchConfig& cfg,
                    const tensor::LayerLayout& layout,
                    const std::vector<double>& sleeps_s, int steps) {
  core::AsyncOptions aopts;
  aopts.bucket_bytes = cfg.bucket_bytes;
  aopts.overlap = mode != Mode::kInline;
  if (mode == Mode::kDag) aopts.comm_lanes = 2;
  core::AsyncGradientEngine engine(
      std::make_unique<core::CgxEngine>(
          layout, core::CompressionConfig::cgx_default(), cfg.world),
      aopts);

  ModeResult out;
  out.buckets = engine.plan().total_submissions();
  out.finals.resize(static_cast<std::size_t>(cfg.world));

  comm::ShmTransport shm(cfg.world);
  // The latency-bound wire: every send stalls the sending thread for the
  // blanket delay. The inline reference runs clean — delays never change
  // the maths, only the schedule, and the reference only exists for bits.
  comm::FaultInjector injector(/*seed=*/7, cfg.world);
  if (mode != Mode::kInline) {
    comm::FaultSpec spec;
    spec.delay_prob = 1.0;
    spec.delay = cfg.wire_delay;
    injector.set_all_links(spec);
  }
  comm::FaultyTransport faulty(shm, injector);
  comm::Transport& transport =
      mode == Mode::kInline ? static_cast<comm::Transport&>(shm) : faulty;

  const std::size_t layers = layout.layer_count();
  comm::run_world(transport, [&](comm::Comm& comm) {
    const int rank = comm.rank();
    util::Rng rng(7100 + static_cast<std::uint64_t>(rank));
    std::vector<float> grad;

    // DAG mode: the backward graph of the two-tower model. head writes h;
    // each tower is a chain hanging off h; stem joins both tower outputs.
    // Completion callbacks feed notify_layer_ready from pool workers.
    std::unique_ptr<util::ThreadPool> pool;
    core::DepEngine dag;
    std::vector<std::size_t> op_layer;   // op id -> layout layer
    if (mode == Mode::kDag) {
      pool = std::make_unique<util::ThreadPool>(2);
      dag.set_pool(pool.get());
      const auto h = dag.new_var();
      const auto push_op = [&](std::size_t layer,
                               std::initializer_list<core::DepEngine::VarId>
                                   reads,
                               std::initializer_list<core::DepEngine::VarId>
                                   writes) {
        const double budget = sleeps_s.empty() ? 0.0 : sleeps_s[layer];
        dag.push([budget] { burn(budget); }, reads, writes);
        op_layer.push_back(layer);
      };
      // Head layers (weight + bias) chain on h, back-to-front.
      bool first = true;
      for (std::size_t l = layers; l-- > 0;) {
        if (layout.layer(l).name.rfind("head.", 0) != 0) continue;
        if (first) {
          push_op(l, {}, {h});
          first = false;
        } else {
          push_op(l, {h}, {h});  // read-modify-write keeps the chain
        }
      }
      std::vector<core::DepEngine::VarId> tower_out;
      for (int tower = 0; tower < 2; ++tower) {
        core::DepEngine::VarId prev = h;
        // Backward walks each tower back-to-front.
        for (std::size_t l = layers; l-- > 0;) {
          if (!layer_in_tower(layout, l, tower)) continue;
          const auto v = dag.new_var();
          push_op(l, {prev}, {v});
          prev = v;
        }
        tower_out.push_back(prev);
      }
      // Stem layers join both towers, then chain among themselves.
      const auto s = dag.new_var();
      first = true;
      for (std::size_t l = layers; l-- > 0;) {
        if (layout.layer(l).name.rfind("stem.", 0) != 0) continue;
        if (first) {
          push_op(l, {tower_out[0], tower_out[1]}, {s});
          first = false;
        } else {
          push_op(l, {s}, {s});
        }
      }
      dag.set_on_complete([&](core::DepEngine::OpId id) {
        engine.notify_layer_ready(rank, op_layer[id]);
      });
    }

    const auto step = [&](int round) {
      grad = rank_gradient(layout, rank, round);
      engine.begin_step(comm, grad, rng);
      if (mode == Mode::kDag) {
        dag.run();
      } else {
        // Sequential hooks: strict reverse-layer walk, deadline-paced so
        // compute always elapses and is never absorbed by inline
        // collectives (same pacing as bench_overlap).
        auto deadline = clock_type::now();
        for (std::size_t l = layers; l-- > 0;) {
          if (!sleeps_s.empty()) {
            const auto now = clock_type::now();
            if (now > deadline) deadline = now;
            deadline += std::chrono::duration_cast<clock_type::duration>(
                std::chrono::duration<double>(sleeps_s[l]));
            if (deadline - now > std::chrono::microseconds(100)) {
              std::this_thread::sleep_until(deadline);
            }
          }
          engine.notify_layer_ready(rank, l);
        }
      }
      engine.wait_all(rank);
    };

    step(0);  // warm-up: arenas grown, op graph recorded, lanes spun up
    comm.barrier();
    const auto t0 = clock_type::now();
    for (int i = 0; i < steps; ++i) {
      step(1 + i);
      if (rank == 0) {
        const auto& t = engine.last_step_report(0).timing;
        out.compute_s += t.compute_s / steps;
        out.comm_s += t.comm_s / steps;
        out.exposed_s += t.exposed_comm_s / steps;
        out.exposed_pct += t.exposed_comm_pct / steps;
      }
    }
    comm.barrier();
    if (rank == 0) {
      out.step_s =
          std::chrono::duration<double>(clock_type::now() - t0).count() /
          steps;
    }
    out.finals[static_cast<std::size_t>(rank)] = grad;
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const models::PaperModel model = models::two_tower_net();

  std::vector<int> worlds = smoke ? std::vector<int>{2}
                                  : std::vector<int>{2, 8};

  util::Table table("DAG executor vs sequential hooks (" + model.name +
                    " profile, latency-bound wire, measured)");
  table.set_header({"world", "mode", "subs", "step ms", "comm ms",
                    "exposed ms", "exposed %"});

  struct Row {
    int world;
    Mode mode;
    ModeResult r;
    bool bit_identical;
  };
  std::vector<Row> rows;

  bool all_identical = true;
  double seq_pct_w8 = -1.0;
  double dag_pct_w8 = -1.0;

  for (int world : worlds) {
    BenchConfig cfg;
    cfg.world = world;
    if (smoke) {
      cfg.param_scale = 512.0;
      cfg.calib_steps = 1;
      cfg.timed_steps = 2;
      cfg.wire_delay = std::chrono::microseconds(40);
    }
    const tensor::LayerLayout layout =
        bench::scaled_layout(model, cfg.param_scale);

    // 1) Pure comm time in the delayed regime (sequential hooks, no
    //    sleeps) sizes the backward budget.
    const double comm_step_s =
        run_mode(Mode::kSeq, cfg, layout, {}, cfg.calib_steps).step_s;
    const std::vector<double> sleeps =
        layer_sleeps(layout, cfg.compute_comm_ratio * comm_step_s);

    // 2) Same work, three modes, same seeds and step counts.
    const ModeResult inl =
        run_mode(Mode::kInline, cfg, layout, sleeps, cfg.timed_steps);
    const ModeResult seq =
        run_mode(Mode::kSeq, cfg, layout, sleeps, cfg.timed_steps);
    const ModeResult dag =
        run_mode(Mode::kDag, cfg, layout, sleeps, cfg.timed_steps);

    for (const auto* mr : {&inl, &seq, &dag}) {
      const Mode mode = mr == &inl   ? Mode::kInline
                        : mr == &seq ? Mode::kSeq
                                     : Mode::kDag;
      bool identical = true;
      for (int r = 0; r < world; ++r) {
        const auto& a = mr->finals[static_cast<std::size_t>(r)];
        const auto& b = inl.finals[static_cast<std::size_t>(r)];
        identical = identical && a.size() == b.size() &&
                    std::memcmp(a.data(), b.data(),
                                a.size() * sizeof(float)) == 0;
      }
      all_identical = all_identical && identical;
      rows.push_back({world, mode, *mr, identical});
      table.add_row({std::to_string(world), mode_name(mode),
                     std::to_string(mr->buckets),
                     util::Table::num(1e3 * mr->step_s, 2),
                     util::Table::num(1e3 * mr->comm_s, 2),
                     util::Table::num(1e3 * mr->exposed_s, 2),
                     util::Table::num(mr->exposed_pct, 1) + "%"});
    }
    if (world == 8) {
      seq_pct_w8 = seq.exposed_pct;
      dag_pct_w8 = dag.exposed_pct;
    }
  }
  table.print();

  std::filesystem::create_directories("results");
  std::ofstream out("results/BENCH_dag.json");
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "  {\"model\": \"%s\", \"world\": %d, \"mode\": \"%s\", "
        "\"submissions\": %zu, \"step_ms\": %.3f, \"compute_ms\": %.3f, "
        "\"comm_ms\": %.3f, \"exposed_comm_ms\": %.3f, "
        "\"exposed_pct\": %.1f, \"bit_identical_to_inline\": %s}%s",
        model.name.c_str(), row.world, mode_name(row.mode), row.r.buckets,
        1e3 * row.r.step_s, 1e3 * row.r.compute_s, 1e3 * row.r.comm_s,
        1e3 * row.r.exposed_s, row.r.exposed_pct,
        row.bit_identical ? "true" : "false",
        i + 1 < rows.size() ? ",\n" : "\n");
    out << line;
  }
  out << "]\n";
  std::printf("wrote results/BENCH_dag.json\n");

  std::printf("bit-identity vs inline: %s\n",
              all_identical ? "PASS" : "FAIL");
  int rc = all_identical ? 0 : 1;
  if (!smoke && seq_pct_w8 > 0.0) {
    const double rel = 100.0 * (seq_pct_w8 - dag_pct_w8) / seq_pct_w8;
    const bool pass = dag_pct_w8 <= 0.8 * seq_pct_w8;
    std::printf(
        "world 8 exposed comm: seq %.1f%% -> dag %.1f%% (-%.0f%% rel, "
        "target >= 20%% rel) %s\n",
        seq_pct_w8, dag_pct_w8, rel, pass ? "PASS" : "MISS");
    if (!pass) rc = 1;
  }
  return rc;
}
