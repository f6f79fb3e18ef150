#!/usr/bin/env python3
"""Steadiness runner: repeats workloads over seeds and reports each metric's
median and quartiles against the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py [--workload W ...] [--runs 10] [--seed0 1]
                                [--trace 0|1] [--save runs.json]
                                [--against earlier.json]

Run from the repository root. For every end-to-end metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median. A metric is steady when its spread is within a
third of its bound ("ok"), and acceptable within the bound itself
("wide"); setup_s is exempt from the spread requirement (its bound
governs only how far its median may drift). With --against, it also
compares each median with the one saved in an earlier run of this script
and flags a median worse by more than the bound. Exits 1 when a run fails
or returns correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       check=False)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       r.returncode))
    return json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to repeat (default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write all results to this JSON file")
    ap.add_argument("--against", help="JSON saved by an earlier --save")
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in specs}
    better = {m["name"]: m["better"] for m in specs}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    saved = {}
    ok = True
    for w in workloads:
        runs = []
        for k in range(args.runs):
            res = run_once(w, args.seed0 + k, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (w, args.seed0 + k, res["correct"], res["failed"]))
                ok = False
            runs.append(res)
        saved[w] = runs
        print("\n== %s: %d runs, seeds %d..%d" %
              (w, args.runs, args.seed0, args.seed0 + args.runs - 1))
        print("%-28s %12s %12s %12s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            verdict = ""
            if name == "setup_s":
                verdict = "exempt"
            elif bound is not None:
                verdict = ("ok" if spread <= bound / 3 else
                           "wide" if spread <= bound else "UNSTEADY")
            if name in earlier.get(w, {}).get("median", {}) and bound:
                prev = earlier[w]["median"][name]
                worse = (med - prev) / prev if better[name] == "lower" \
                    else (prev - med) / prev
                verdict += " vs-earlier %+.3f%s" % (
                    worse, " REGRESSED" if worse > bound else "")
            print("%-28s %12.5g %12.5g %12.5g %8.3f %6s %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound, verdict))
        saved[w] = {"runs": runs, "median": {
            n: statistics.median([r["metrics"][n]["value"] for r in runs])
            for n in runs[0]["metrics"]}}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
