#!/usr/bin/env python3
"""Benchmark command for the CGX reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the
repository's src/ libraries) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload in fresh processes
of its own:

  --trace 0  two set-up-only runs, the measured run and two more set-up-only
             runs. Prints every end-to-end metric of BENCHMARK.json; setup_s
             is the median of the five set-up times, taken apart in time so
             that a burst of outside load moves only some of them.
  --trace 1  one untraced and one traced run. Prints every per-layer
             metric (0 where the workload does not exercise that layer),
             including trace.overhead_pct, the traced run's wall-clock
             time per step over the untraced one's (step_ms_p50, or the
             allreduce call on the virtual-clock workload; it carries the
             run-to-run noise of two processes), and writes the traced
             run's spans as Chrome trace-event JSON (chrome://tracing,
             Perfetto).

The last line of standard output is the result object. The command exits 1
when a correctness check fails and 2 on a usage or build error. Each run's
full output, provenance included, is also saved under <build>/results/.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "cgx_perfbench"
RUN_BUDGET_S = 170  # all runs of one invocation, build excluded


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return Path(target).resolve() if target else ROOT / ".bench_build"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no CGX sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", BINARY])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return out / BINARY


def run_binary(binary, args, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"runs exceeded {RUN_BUDGET_S} s: {' '.join(args)}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"no result from {' '.join(args)} (exit {proc.returncode})")
    return result


def source_digest():
    """sha256 over the benchmarked sources: provenance for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, busy) clock ticks of the whole host from /proc/stat, or None.

    Steal is time the hypervisor ran something else while this machine
    wanted a CPU: outside load that slows the 4-rank lockstep workloads."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq


def steal_pct(before, after):
    if before is None or after is None:
        return None
    steal, busy = after[0] - before[0], after[1] - before[1]
    return round(100.0 * steal / (steal + busy), 2) if steal + busy else 0.0


def commit():
    # Only the checkout's own repository: git would otherwise report the
    # commit of any repository that happens to enclose it.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")

    out = build_dir()
    binary = build(out)
    deadline = time.monotonic() + RUN_BUDGET_S
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds)]

    if args.trace == 0:
        setup_only = base + ["--setup-only"]
        runs = [run_binary(binary, setup_only, deadline) for _ in range(2)]
        ticks = cpu_ticks()
        main_run = run_binary(binary, base, deadline)
        steal = steal_pct(ticks, cpu_ticks())
        runs.append(main_run)
        runs += [run_binary(binary, setup_only, deadline) for _ in range(2)]
        setups = [r["metrics"].get("setup_s", 0.0) for r in runs]
        main_run["metrics"]["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    else:
        trace_path = results / f"trace_{tag}.json"
        untraced = run_binary(binary, base, deadline)
        ticks = cpu_ticks()
        main_run = run_binary(binary, base + ["--trace", "1", "--trace-out",
                                              str(trace_path)], deadline)
        steal = steal_pct(ticks, cpu_ticks())
        runs = [untraced, main_run]
        base_ms = untraced["metrics"].get("wall_step_ms", 0.0)
        traced_ms = main_run["metrics"].get("wall_step_ms", 0.0)
        main_run["metrics"]["trace.overhead_pct"] = (
            100.0 * (traced_ms / base_ms - 1.0) if base_ms > 0 else 0.0)
        wanted = spec["per_layer"]
        print(f"trace: {trace_path}")

    metrics, missing = {}, []
    for m in wanted:
        value = main_run["metrics"].get(m["name"])
        if value is None and args.trace == 0:
            missing.append(m["name"])
        # A layer the workload does not exercise reports 0.
        metrics[m["name"]] = {"value": value or 0.0, "unit": m["unit"]}
    errors = [e for r in runs for e in r.get("errors", [])]
    if missing:
        errors.append("missing metrics: " + ", ".join(missing))
    correct = all(r["correct"] for r in runs) and not missing

    provenance = dict(main_run.get("provenance", {}))
    provenance.update({"commit": commit(), "source_digest": source_digest(),
                       "steal_pct": steal})
    if provenance.get("build_type") != "Release":
        print(f"WARNING: {provenance.get('build_type')} build, not Release",
              file=sys.stderr)
    record = {"provenance": provenance, "runs": runs, "errors": errors}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    print(json.dumps({"correct": correct,
                      "attempted": int(main_run["attempted"]),
                      "failed": int(main_run["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
