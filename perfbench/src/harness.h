// Measurement machinery shared by the benchmark workloads: run options,
// the result record, step statistics, the operator-new gauge, peak RSS,
// per-rank accumulators and the in-memory span tracer.
//
// Everything here observes the program from outside: the workloads call
// the library's public entry points and time the calls at the seams the
// benchmark owns (data provider, loss, optimizer wrapper, its own step
// loops, a transport decorator). Nothing is compiled into the library.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace cgx {}

namespace perfbench {

// The workloads name the library's namespaces (comm, core, nn, ...)
// unqualified.
using namespace cgx;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       // per-layer timing + spans
  bool setup_only = false;  // stop where the first timed step would start
  std::string trace_path;   // Chrome trace output (trace mode only)
};

struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;  // timed steps started
  std::uint64_t failed = 0;     // timed steps that did not complete
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

using Clock = std::chrono::steady_clock;

// Process clock: main() calls mark_process_start() first thing.
void mark_process_start();
double since_start_s();
std::int64_t now_ns();  // steady clock, ns since process start

// Timed step count for a run of `seconds` at a fixed nominal rate. The
// count depends only on the command line, never on measured speed, so
// every commit does the same work for the same arguments.
std::size_t steps_for(double seconds, double nominal_per_s,
                      std::size_t min_steps);

// ---- statistics over a sample (empty -> 0) ----
double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);  // q in [0, 100]
double mean(std::span<const double> v);
// Percentile q of each consecutive window of `window` steps, then the
// lower quartile over the windows: the windows least slowed by outside
// load. On a shared virtual machine the hypervisor takes CPU time away in
// bursts that touch most windows of a run (at 16% steal the median window
// of sync_bert_w2 read a p95 of 68 ms, its lower quartile 58 ms, quiet
// runs 45-47 ms); a slowdown of the program itself moves every window.
double windowed_percentile(std::span<const double> step_ms,
                           std::size_t window, double q);
// Samples per second over consecutive windows of `window` steps, upper
// quartile over the windows, for the same reason. `samples[i]` is what
// step i processed.
double windowed_rate(std::span<const double> step_ms,
                     std::span<const double> samples, std::size_t window);

// ---- operator-new gauge: counts calls only while the window is open ----
void set_alloc_window(bool open);
std::size_t allocs_in_window();

double peak_rss_mb();

// FNV-1a over raw bytes: bit-identity checks across ranks.
std::uint64_t fnv1a(std::span<const float> v);

// Relative L2 error ||got - want|| / ||want||, and whether `got` is finite.
double rel_l2_error(std::span<const float> got, std::span<const float> want);
bool all_finite(std::span<const float> v);

constexpr int kMaxRanks = 16;

// Per-rank sum/count slots; each rank thread writes only its own slot.
class Accum {
 public:
  void add(int rank, double v) {
    Slot& s = slots_[static_cast<std::size_t>(rank)];
    s.sum += v;
    ++s.n;
  }
  double mean() const;   // over every sample of every rank
  double total() const;  // sum of every sample

 private:
  struct alignas(64) Slot {
    double sum = 0.0;
    std::uint64_t n = 0;
  };
  std::array<Slot, kMaxRanks> slots_{};
};

// ---- span tracer ----
// Fixed-capacity span store (allocated when tracing is enabled, before any
// timed window), so recording never allocates. Spans past the capacity are
// counted and dropped.
struct Span {
  const char* name = nullptr;
  std::int32_t rank = 0;
  std::int32_t parent = -1;  // span id, -1 = root
  std::int64_t step = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  void enable(std::size_t capacity);
  // Opens a span now; returns its id, or -1 when disabled or full.
  int open(const char* name, int rank, std::int64_t step, int parent = -1);
  void close(int id);
  // Records a finished span with explicit timestamps.
  int record(const char* name, int rank, std::int64_t step,
             std::int64_t start_ns, std::int64_t end_ns, int parent = -1);
  std::size_t size() const;
  std::size_t dropped() const { return dropped_.load(); }
  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  std::unique_ptr<Span[]> spans_;
  std::size_t capacity_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
};

Tracer& tracer();

// ---- workloads ----
Result run_train_cnn(const RunOptions& opt);
Result run_sync_bert(const RunOptions& opt);
Result run_twolevel_bert(const RunOptions& opt);
Result run_elastic_mlp(const RunOptions& opt);

}  // namespace perfbench
