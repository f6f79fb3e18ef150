#!/usr/bin/env python3
"""Builds and runs the repository's seeded benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the library from src/ plus the benchmark program) as a Release
build in .bench_build/perfbench; later runs rebuild only what changed. Build output
goes to stderr. The benchmark's own output goes to stdout, and its last line
is the result: {"correct", "attempted", "failed", "metrics"}. Traced runs
write their spans to .bench_out/.

Workloads: verify_oneshot, service_sweeps, synthesis, unsat_refute
(see BENCHMARK.json for why each exists, perfbench/layers.json for what
each per-layer metric should move). Exits non-zero, without a result, when
the sources are missing, the build fails or the run fails.

End-to-end times are reported at a nominal machine speed: the run times a
fixed kernel of the benchmark's own every 100 ms and scales each latency by
the speed measured around it (SpeedProbe in src/workloads.cpp); ops_per_s
counts the closed loop's whole wall time, not only the operations. The
single-threaded workloads run pinned to one core, the one the kernel is
timed on; unsat_refute's portfolio latencies are scaled by the mean time
of the kernel run on every core at once. A run fails when other threads of the program used
CPU during too many probe samples. The raw values and the speed factor are in the {"info": ...} line
before the result. Per-layer metrics are raw.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
MANIFEST = os.path.join(HERE, "manifest.tsv")

# A run measures for --seconds, then checks answers and (service_sweeps)
# times a cold baseline; this leaves room for both within the 180 s limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found under src/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "-j", jobs])


def step(cmd):
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build step failed: %s" % e)
    if r.returncode != 0:
        die("build step failed: " + " ".join(cmd))


def main():
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(MANIFEST):
        die("manifest not found: " + MANIFEST)
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--manifest", MANIFEST, "--out", OUT]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           check=False, text=True)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        die("benchmark exited with code %d" % r.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
