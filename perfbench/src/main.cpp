// cgx_perfbench: runs one benchmark workload in this process and prints
// one JSON result line. perfbench/run.py builds this binary, runs it (once
// per workload, so peak RSS and set-up time belong to that workload) and
// turns its output into the benchmark's result.
//
//   cgx_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                 [--setup-only] [--trace-out PATH]
//
// Workloads: train_cnn_w2, sync_bert_w2, twolevel_bert_w16_sim,
// elastic_mlp_w2 (see perfbench/README.md).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"
#include "util/numa.h"
#include "util/simd.h"

namespace {

using perfbench::Result;
using perfbench::RunOptions;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cgx_perfbench: %s\nusage: cgx_perfbench --workload NAME "
               "--seed N --seconds S [--trace 0|1] [--setup-only] "
               "[--trace-out PATH]\n",
               why);
  std::exit(2);
}

// JSON string escape for the few free-text fields (errors, host).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const RunOptions& opt, const Result& r) {
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    out += (first ? "" : ", ") + quoted(name) + ": " + number(value);
    first = false;
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? ", " : "") + quoted(r.errors[i]);
  }
  const auto simd = cgx::util::simd::active_level();
  out += "], \"provenance\": {\"host\": " + quoted(host);
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_level\": " +
         quoted(cgx::util::simd::level_name(simd));
  out += ", \"numa\": " +
         quoted(std::string(cgx::util::numa::enabled() ? "on" : "off") +
                ", " + std::to_string(cgx::util::numa::node_count()) +
                " node(s)");
  out += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  out += ", \"workload\": " + quoted(opt.workload);
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"seconds\": " + number(opt.seconds);
  out += ", \"trace\": " + std::string(opt.trace ? "1" : "0") + "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else if (arg == "--trace-out") {
      opt.trace_path = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "WARNING: cgx_perfbench built as %s, not Release; timings "
                 "are not comparable\n",
                 PERFBENCH_BUILD_TYPE);
  }
  if (opt.trace) perfbench::tracer().enable(std::size_t{1} << 20);

  Result result;
  try {
    if (opt.workload == "train_cnn_w2") {
      result = perfbench::run_train_cnn(opt);
    } else if (opt.workload == "sync_bert_w2") {
      result = perfbench::run_sync_bert(opt);
    } else if (opt.workload == "twolevel_bert_w16_sim") {
      result = perfbench::run_twolevel_bert(opt);
    } else if (opt.workload == "elastic_mlp_w2") {
      result = perfbench::run_elastic_mlp(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  result.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
  if (opt.trace) {
    auto& t = perfbench::tracer();
    result.metrics["trace.spans"] = static_cast<double>(t.size());
    result.metrics["trace.spans_dropped"] = static_cast<double>(t.dropped());
    if (!opt.trace_path.empty() && !t.write_chrome(opt.trace_path)) {
      result.fail("could not write trace to " + opt.trace_path);
    }
  }
  print_result(opt, result);
  return result.correct ? 0 : 1;
}
