#!/usr/bin/env python3
"""Perf-smoke gate: run the pinned hot-kernel microbenchmarks and fail on a
gross regression against the checked-in reference numbers.

The reference (bench/perf_smoke_reference.json) records per-kernel cpu-ns
measured on the box that produced results/BENCH_*.json. CI machines are
slower and noisier, so the gate is deliberately loose: a kernel fails only
when it runs more than --max-ratio (default 3.0) times slower than its
reference. That still catches the regressions this gate exists for — an
accidentally de-inlined copy path, the small-set optimization falling back to
heap allocation — while shrugging off hardware and scheduler noise.

Usage:
  python3 tools/perf_smoke.py --micro build/bench/micro \
      --reference bench/perf_smoke_reference.json [--max-ratio 3.0]

Regenerate the reference after an intentional change to a pinned path:
  python3 tools/perf_smoke.py --micro build/bench/micro \
      --reference bench/perf_smoke_reference.json --update
"""

import argparse
import json
import subprocess
import sys


def run_benchmarks(micro, filter_regex, min_time):
    cmd = [
        micro,
        f"--benchmark_filter={filter_regex}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark binary failed: {' '.join(cmd)}")
    data = json.loads(proc.stdout)
    results = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        results[bench["name"]] = float(bench["cpu_time"])
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--micro", required=True,
                        help="path to the bench/micro binary")
    parser.add_argument("--reference", required=True,
                        help="path to perf_smoke_reference.json")
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when measured/reference exceeds this")
    parser.add_argument("--min-time", default="0.2",
                        help="--benchmark_min_time per kernel")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the reference from this run and exit")
    args = parser.parse_args()

    with open(args.reference) as f:
        reference = json.load(f)
    kernels = reference["kernels"]
    filter_regex = "^(" + "|".join(
        name.replace("/", "/") for name in kernels) + ")$"
    measured = run_benchmarks(args.micro, filter_regex, args.min_time)

    if args.update:
        for name in kernels:
            if name not in measured:
                raise SystemExit(f"kernel {name} missing from benchmark run")
            kernels[name]["cpu_ns"] = round(measured[name], 2)
        with open(args.reference, "w") as f:
            json.dump(reference, f, indent=2)
            f.write("\n")
        print(f"updated {args.reference}")
        return 0

    failures = []
    for name, entry in kernels.items():
        if name not in measured:
            failures.append(f"{name}: missing from benchmark output")
            continue
        ref_ns = float(entry["cpu_ns"])
        got_ns = measured[name]
        ratio = got_ns / ref_ns if ref_ns > 0 else float("inf")
        status = "ok" if ratio <= args.max_ratio else "FAIL"
        print(f"{status:4} {name}: {got_ns:.2f} ns vs reference "
              f"{ref_ns:.2f} ns ({ratio:.2f}x, limit {args.max_ratio:.1f}x)")
        if ratio > args.max_ratio:
            failures.append(
                f"{name}: {ratio:.2f}x slower than reference "
                f"({got_ns:.2f} ns vs {ref_ns:.2f} ns)")
    if failures:
        print("\nperf smoke FAILED:", file=sys.stderr)
        for f_msg in failures:
            print(f"  {f_msg}", file=sys.stderr)
        return 1
    print("\nperf smoke passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
