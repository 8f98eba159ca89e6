#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the engine from src/) in Release mode
under .bench_build/perfbench, runs the perfbench binary for one workload,
forwards its human-readable report, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones. A per-layer metric of a layer the workload does not run is
reported as 0 and listed on the report line "not run by this workload".

Exits non-zero, printing no result, when the sources are missing, the
build fails, the binary fails, or its metrics disagree with BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def build(root, build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code, _, _ = run_group(step, max(1, deadline - time.monotonic()),
                                       stdout=log, stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}", 3)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed; see {log_path}", 3)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    for needed in (spec_path, os.path.join(root, "perfbench", "CMakeLists.txt"),
                   os.path.join(root, "src", "CMakeLists.txt")):
        if not os.path.exists(needed):
            fail(f"missing {needed}: run from the repository root", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        code, out, _ = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                 text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith(RESULT_PREFIX):
        sys.stdout.write("\n".join(lines[-20:]) + "\n")
        fail(f"{args.workload} failed (exit {code})", 4)
    result = json.loads(lines[-1][len(RESULT_PREFIX):])
    measured = result["metrics"]

    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}", 5)
    selected = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    metrics, not_run = {}, []
    for m in selected:
        got = measured.get(m["name"])
        if got is None:
            if args.trace == "0":
                fail(f"end-to-end metric {m['name']} not measured", 5)
            not_run.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}", 5)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for line in lines[:-1]:
        print(line)
    for name, m in measured.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    if not_run:
        print("not run by this workload: " + " ".join(not_run))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
