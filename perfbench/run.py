#!/usr/bin/env python3
"""Run one perfbench workload and print its result as one JSON line.

    python3 perfbench/run.py --workload sweep-cold --seed 3 --seconds 20 --trace 0

Builds the program and the perfbench binary from source (CMake, into
.bench_build/perfbench), runs the workload, checks its output and prints,
as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (0 for a layer the workload does not
exercise).  setup_s is the median of three
set-ups: two set-up-only processes and the measured process's own.
For the seed named default_seed in pins.json, the payload digest must
match the pinned one.  Any failed check makes the exit code 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SETUP_REPLICAS = 2
RUN_TIMEOUT_S = 150


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_binary(args, work_dir, extra=()):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    build()

    work_root = os.path.join(ROOT, ".bench_build", "perfbench-work",
                             str(os.getpid()))
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPLICAS):
                rep = run_binary(args, os.path.join(work_root, f"setup{i}"),
                                 ["--setup-only"])
                setups.append(rep["setup_s"])
        span_file = os.path.join(BUILD, f"spans-{args.workload}.jsonl")
        rep = run_binary(args, os.path.join(work_root, "run"),
                         ["--span-file", span_file] if args.trace else [])
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    attempted, failed = rep["attempted"], rep["failed"]
    if args.seed == pins["default_seed"]:
        attempted += 1
        want = pins["payload_digest"][args.workload]
        if rep["payload"] != want:
            failed += 1
            log(f"FAILED: payload digest {rep['payload']} != pinned {want}")
    log(f"payload digest {rep['payload']}")

    values = dict(rep["metrics"])
    if args.trace:
        # A layer this workload does not exercise reports 0.
        for name in units:
            values.setdefault(name, 0.0)
    else:
        values["setup_s"] = statistics.median(setups + [rep["setup_s"]])
    if set(values) != set(units):
        log(f"metric mismatch with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
        return 3
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(2)
