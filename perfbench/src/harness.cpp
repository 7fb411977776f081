#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_alloc_window{false};
std::atomic<std::size_t> g_allocs{0};
perfbench::Clock::time_point g_start = perfbench::Clock::now();

}  // namespace

// Counting operator new, the same gauge bench/bench_multinode.cpp uses:
// one relaxed flag test per allocation, a counter bump only inside the
// timed window.
void* operator new(std::size_t size) {
  if (g_alloc_window.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void mark_process_start() { g_start = Clock::now(); }

double since_start_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_start)
      .count();
}

std::size_t steps_for(double seconds, double nominal_per_s,
                      std::size_t min_steps) {
  const auto n = static_cast<std::size_t>(std::llround(seconds * nominal_per_s));
  return std::max(n, min_steps);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double windowed_percentile(std::span<const double> step_ms,
                           std::size_t window, double q) {
  std::vector<double> per_window;
  for (std::size_t start = 0; start + window <= step_ms.size();
       start += window) {
    per_window.push_back(percentile(
        std::vector<double>(step_ms.begin() + start,
                            step_ms.begin() + start + window),
        q));
  }
  return percentile(std::move(per_window), 25.0);
}

double windowed_rate(std::span<const double> step_ms,
                     std::span<const double> samples, std::size_t window) {
  std::vector<double> rates;
  for (std::size_t start = 0; start + window <= step_ms.size();
       start += window) {
    double ms = 0.0, n = 0.0;
    for (std::size_t i = start; i < start + window; ++i) {
      ms += step_ms[i];
      n += samples[i];
    }
    rates.push_back(1e3 * n / ms);
  }
  return percentile(std::move(rates), 75.0);
}

void set_alloc_window(bool open) {
  if (open) g_allocs.store(0, std::memory_order_relaxed);
  g_alloc_window.store(open, std::memory_order_relaxed);
}

std::size_t allocs_in_window() {
  return g_allocs.load(std::memory_order_relaxed);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(std::span<const float> v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto bytes = std::as_bytes(v);
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

double rel_l2_error(std::span<const float> got, std::span<const float> want) {
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double d = static_cast<double>(got[i]) - want[i];
    err += d * d;
    ref += static_cast<double>(want[i]) * want[i];
  }
  return ref > 0.0 ? std::sqrt(err / ref) : 0.0;
}

bool all_finite(std::span<const float> v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double Accum::mean() const {
  std::uint64_t n = 0;
  for (const Slot& slot : slots_) n += slot.n;
  return n > 0 ? total() / static_cast<double>(n) : 0.0;
}

double Accum::total() const {
  double s = 0.0;
  for (const Slot& slot : slots_) s += slot.sum;
  return s;
}

void Tracer::enable(std::size_t capacity) {
  spans_ = std::make_unique<Span[]>(capacity);
  capacity_ = capacity;
}

int Tracer::open(const char* name, int rank, std::int64_t step, int parent) {
  if (capacity_ == 0) return -1;
  const std::int64_t t = now_ns();
  return record(name, rank, step, t, t, parent);
}

void Tracer::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int Tracer::record(const char* name, int rank, std::int64_t step,
                   std::int64_t start_ns, std::int64_t end_ns, int parent) {
  if (capacity_ == 0) return -1;
  const std::size_t id = next_.fetch_add(1, std::memory_order_relaxed);
  if (id >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  spans_[id] = Span{name, rank, parent, step, start_ns, end_ns};
  return static_cast<int>(id);
}

std::size_t Tracer::size() const {
  return std::min(next_.load(), capacity_);
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"step\": %lld}}%s\n",
                 s.name, s.rank, 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 s.parent, static_cast<long long>(s.step),
                 i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace perfbench
