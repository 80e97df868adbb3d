#!/usr/bin/env python3
"""Repository benchmark: one workload of the simulated MPICH2-over-InfiniBand
stack, measured on the host clock and the virtual clock.

    python3 perfbench/run.py --workload p2p --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The first run configures and builds
perfbench/ (a stand-alone CMake package compiling ../src) into .bench_build/;
later runs rebuild incrementally.  The workload then runs in one fresh,
single-threaded process (simulated ranks are coroutines of one DES).

Output: a run header (source revision, build type, nproc, seed), every metric
with its unit, notes (sample counts behind each percentile, failures), and as
the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a run that also executes the
layer-entry ladder, attaches a sim::TraceSink and writes benchmark-side spans
to .bench_build/traces/.  Metric meanings and the predictions tying each
per-layer metric to an end-to-end metric are in perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("p2p", "coll64", "nas4", "nasfault")
# Whole-run limit for the workload process; the build has its own.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def local_env():
    """The environment for child processes, with temporary files (the
    compiler's above all) kept inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout,
                                  env=local_env())
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def tail(path, n=30):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-n:])
    except OSError:
        return ""


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        ok = run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log,
                        BUILD_TIMEOUT_S)
        if not ok:
            why = tail(log)
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed:\n" + why)
    ok = run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs,
                     "--target", "perfbench"], log,
                    max(1.0, deadline - time.monotonic()))
    if not ok or not os.path.exists(BINARY):
        fail("build failed:\n" + tail(log))


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    every benchmark and library source file."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        in_repo = (top.returncode == 0 and
                   os.path.realpath(top.stdout.strip()) ==
                   os.path.realpath(ROOT))
        if in_repo and sha.returncode == 0 and sha.stdout.strip():
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
            suffix = "-dirty" if dirty.stdout.strip() else ""
            return sha.stdout.strip()[:12] + suffix
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    err_log = os.path.join(BUILD_DIR, "%s.stderr.log" % args.workload)
    with open(err_log, "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=err, text=True,
                                  timeout=RUN_TIMEOUT_S, env=local_env())
        except subprocess.TimeoutExpired:
            fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload %s exited with %d:\n%s" %
             (args.workload, proc.returncode, tail(err_log)))
    result = json.loads(lines[-1])

    print("# run: rev=%s build=%s nproc=%d seed=%d workload=%s seconds=%d "
          "trace=%d" % (source_revision(), result["build_type"],
                        os.cpu_count() or 0, args.seed, args.workload,
                        args.seconds, args.trace))
    for line in lines[:-1]:
        print(line)

    source = result["layer"] if args.trace else result["e2e"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            fail("workload %s did not report %s" % (args.workload, m["name"]))
        got = source[m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
