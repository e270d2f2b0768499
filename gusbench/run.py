#!/usr/bin/env python3
"""Build the gusbench binary from this checkout and run one workload.

    python3 gusbench/run.py --workload sql_q1 --seed 7 --seconds 10 --trace 0
    python3 gusbench/run.py --smoke

Run from the root of a libgus checkout. The gusbench binary is built with
CMake into $CARGO_TARGET_DIR/gusbench (default .bench_build/gusbench) the
first time, and the build is a no-op afterwards. The last line of stdout is
the run's JSON result; with --trace 0 its metrics are the end_to_end
metrics of BENCHMARK.json, with --trace 1 the per_layer metrics.

--smoke runs every workload at tiny sizes, traced and untraced, and checks
that each run is correct and emits every metric with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sql_q1", "q1_served", "seg_scan")
RUN_TIMEOUT_S = 170


def fail(message):
    print("gusbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "gusbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no libgus sources next to %s (run from a checkout root)" % HERE)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "gusbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "gusbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, smoke):
    work_dir = os.path.relpath(os.path.join(build_dir(), "work"), ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit code %d)" %
             (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON: %r" % (workload, lines[-1]))
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail("%s emitted metrics %s, BENCHMARK.json names %s" %
             (workload, sorted(got.items()), sorted(want.items())))
    return lines, result


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            _, result = run_once(binary, workload, 1, 1.0, trace, True)
            status = "ok" if result["correct"] else "WRONG"
            ok = ok and result["correct"]
            print("%-10s trace=%d %s attempted=%d failed=%d metrics=%d" %
                  (workload, trace, status, result["attempted"],
                   result["failed"], len(result["metrics"])))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    if args.smoke:
        return smoke(binary)
    lines, result = run_once(binary, args.workload, args.seed, args.seconds,
                             args.trace == 1, False)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
