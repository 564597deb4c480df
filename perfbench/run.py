#!/usr/bin/env python3
"""Run one perfbench workload at one seed and print its result line.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload sparse_scale --seed 1 --seconds 35 --trace 0

Builds perfbench/ (perfbench_driver plus the library sources in src/) in
Release under $CARGO_TARGET_DIR (default .bench_build), runs it, and prints a
human-readable report followed by one JSON line:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, from
an untraced run; with --trace 1 they are its per_layer metrics, from a traced
run (0 for a layer the workload does not run). Each run's full record, with
sample counts and run metadata, is kept as JSON under --record-dir
(default <build dir>/results) for perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(build_root):
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s" % os.path.join(ROOT, "src"))
    build_dir = os.path.join(build_root, "perfbench")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (" ".join(cmd), e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def git_describe():
    # The checkout need not be a repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--record-dir", default=None)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    traced = args.trace == "1"
    wanted = spec["per_layer" if traced else "end_to_end"]
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    program = build(build_root)
    record_dir = args.record_dir or os.path.join(build_root, "results")
    os.makedirs(record_dir, exist_ok=True)
    stem = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    record_path = os.path.join(record_dir, stem + ".json")
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--out", record_path]
    if traced:
        cmd += ["--spans-out", os.path.join(record_dir, stem + ".spans.jsonl")]
    if os.path.exists(record_path):
        os.remove(record_path)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("perfbench_driver did not finish: %s" % e)
    if proc.returncode != 0:
        fail("perfbench_driver exited with %d" % proc.returncode)
    with open(record_path) as f:
        record = json.load(f)
    record["meta"]["git_describe"] = git_describe()
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    measured = record["metrics"]
    for name, m in measured.items():
        if name not in known:
            fail("perfbench_driver reported a metric BENCHMARK.json does not list: %s"
                 % name)
        if m["unit"] != known[name]["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (name, m["unit"], known[name]["unit"]))

    meta = record["meta"]
    print("perfbench workload=%s seed=%d seconds=%g trace=%s" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("  build=%s ghd_obs=%s kernel_dispatch=%s nproc=%s git=%s loop=%s clients=%s "
          "engine_threads=%s aslr=%s"
          % (meta["build_type"], meta["ghd_obs"], meta["kernel_dispatch"], meta["nproc"],
             meta["git_describe"], meta["loop"], meta["clients"], meta["engine_threads"],
             meta["aslr"]))
    for name in sorted(measured):
        m = measured[name]
        print("  %-42s %14.6g %-6s samples=%d beyond=%d"
              % (name, m["value"], m["unit"], m["samples"], m["beyond"]))
    print("  attempted=%d failed=%d" % (record["attempted"], record["failed"]))
    for what in record["failures"]:
        print("  FAILED: %s" % what)

    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
        elif traced:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("perfbench_driver did not report %s" % m["name"])
    correct = record["failed"] == 0 and record["attempted"] >= 1
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
