#!/usr/bin/env bash
# Lightweight CI: the full tier-1 suite plus the sanitizer presets.
#
#   ./ci.sh            # default + ubsan(smt) + tsan(runtime) + asan(smt|runtime)
#   ./ci.sh default    # just one stage
#
# The ubsan stage exists because the BigInt small-value representation is
# built on overflow-checked native arithmetic — a missed signed-overflow
# edge must fail the build, not corrupt a SAT/UNSAT verdict. The asan
# stage covers the packed clause arena: raw-pointer propagation walks,
# compacting GC relocation, and lazily dropped watchers are heap-safety
# hazards by construction.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 4)
stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=(default ubsan tsan asan)
fi

for preset in "${stages[@]}"; do
  echo "== ci: ${preset} =="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
done

# Trace smoke: run the whole data/ suite through batch_runner with the
# structured trace enabled and validate that stdout and every trace line
# are well-formed JSON. Catches escaping/interleaving regressions that the
# unit tests' synthetic inputs might miss.
if command -v python3 >/dev/null 2>&1; then
  echo "== ci: trace smoke =="
  runner=""
  for candidate in build/examples/batch_runner build/default/examples/batch_runner; do
    [ -x "${candidate}" ] && runner="${candidate}" && break
  done
  if [ -z "${runner}" ]; then
    echo "ci: batch_runner binary not found" >&2
    exit 1
  fi
  trace_file=$(mktemp /tmp/psse_trace.XXXXXX.jsonl)
  trap 'rm -f "${trace_file}"' EXIT
  "${runner}" --threads "${jobs}" --portfolio 2 --trace "${trace_file}" data \
    | python3 -c '
import json, sys
n = 0
for line in sys.stdin:
    json.loads(line)  # malformed stdout line -> exception -> nonzero exit
    n += 1
assert n > 0, "batch_runner produced no output"
print(f"ci: {n} result lines OK")
'
  python3 -c '
import json, sys
n = 0
with open(sys.argv[1]) as f:
    for line in f:
        ev = json.loads(line)
        assert "ev" in ev and "t_us" in ev, f"missing envelope: {line!r}"
        n += 1
assert n > 0, "trace file is empty"
print(f"ci: {n} trace events OK")
' "${trace_file}"
else
  echo "== ci: trace smoke skipped (no python3) =="
fi

# Cube-and-conquer and racing cross-check: the whole data/ suite once
# through the warm serial service path, once each through a 4- and a
# 2-thread cube-and-conquer portfolio (three burn-in racers, and one) and
# once through a 4-member racing portfolio (the first four rungs of
# runtime::default_portfolio's ladder). Cubes partition the search space
# and every racing member is sound and complete, so every scenario's
# verdict must be bit-identical — a divergence here is a completeness bug
# in the cube tree (a cube lost, double-counted, or misattributed) or a
# racing member that answers wrongly, never a tolerance issue.
if command -v python3 >/dev/null 2>&1; then
  echo "== ci: cube-and-conquer and racing cross-check =="
  runner=""
  for candidate in build/examples/batch_runner build/default/examples/batch_runner; do
    [ -x "${candidate}" ] && runner="${candidate}" && break
  done
  if [ -z "${runner}" ]; then
    echo "ci: batch_runner binary not found" >&2
    exit 1
  fi
  { "${runner}" --threads "${jobs}" data; echo "===SPLIT==="; \
    "${runner}" --threads "${jobs}" --portfolio 4 --portfolio-mode cube data; \
    echo "===SPLIT==="; \
    "${runner}" --threads "${jobs}" --portfolio 2 --portfolio-mode cube data; \
    echo "===SPLIT==="; \
    "${runner}" --threads "${jobs}" --portfolio 4 data; } \
    | python3 -c '
import json, sys
runs = [{}]
for line in sys.stdin:
    line = line.strip()
    if line == "===SPLIT===":
        runs.append({})
        continue
    row = json.loads(line)
    assert "error" not in row, row
    runs[-1][row["scenario"]] = row["verdict"]
serial, cube, cube2, race = runs
assert serial and set(serial) == set(cube) == set(cube2) == set(race), \
    "scenario sets diverged"
for name in sorted(serial):
    assert serial[name] == cube[name] == cube2[name] == race[name], \
        (f"{name}: serial={serial[name]} cube={cube[name]} "
         f"cube2={cube2[name]} race={race[name]}")
print(f"ci: cube-and-conquer (4 and 2 threads) and racing verdicts "
      f"identical across {len(serial)} scenarios")
'
else
  echo "== ci: cube-and-conquer and racing cross-check skipped (no python3) =="
fi

# Service smoke: pipe a 20-request mixed workload (verify, server-side
# sweeps, interleaved stats) through the analytics server and validate
# every response line with an independent JSON parser. Catches protocol
# regressions — escaping, response ordering, in-band errors — that the
# unit tests' hand-built requests might miss, because the requests here
# are generated from the shipped data/ scenarios. The same stream runs at
# one worker and at ${jobs}: each sweep is one ordered chain either way,
# so every id must come back with the same verdict, and the T_CZ sweep's
# last point must be answered by its T_CZ 5 witness without a solve.
if command -v python3 >/dev/null 2>&1; then
  echo "== ci: analytics_server smoke =="
  server=""
  for candidate in build/examples/analytics_server \
                   build/default/examples/analytics_server; do
    [ -x "${candidate}" ] && server="${candidate}" && break
  done
  if [ -z "${server}" ]; then
    echo "ci: analytics_server binary not found" >&2
    exit 1
  fi
  requests=$(python3 -c '
import json, os
reqs = []
scns = sorted(f for f in os.listdir("data") if f.endswith(".scn"))
# One file-backed verify per shipped scenario...
for i, name in enumerate(scns):
    reqs.append({"op": "verify", "id": f"v{i}",
                 "scenario_file": os.path.join("data", name)})
# ...two 4-point server-side sweeps (resource + secured axes)...
reqs.append({"op": "sweep", "id": "s0",
             "scenario_file": "data/ieee14_objective2.scn",
             "axis": "max-measurements", "values": [2, 4, 5, 8]})
reqs.append({"op": "sweep", "id": "s1",
             "scenario_file": "data/ieee14_objective2.scn",
             "axis": "secure-measurement", "values": [46, 1, 32, 12]})
# ...a repeat (must hit the result memo), an inline scenario, one
# in-band parse error, and a stats probe: len(scns) + 12 response lines.
reqs.append({"op": "verify", "id": "rep",
             "scenario_file": "data/ieee14_objective2.scn"})
reqs.append({"op": "verify", "id": "inl",
             "scenario": "case ieee14\ntarget-only 12\n"
                         "max-measurements 6\n"})
reqs.append({"op": "verify", "id": "bad", "scenario": "caze nope\n"})
reqs.append({"op": "stats"})
print("\n".join(json.dumps(r) for r in reqs))
')
  one=$(printf '%s\n' "${requests}" | "${server}" --threads 1)
  many=$(printf '%s\n' "${requests}" | "${server}" --threads "${jobs}")
  ONE="${one}" MANY="${many}" JOBS="${jobs}" python3 -c '
import json, os
scns = [f for f in os.listdir("data") if f.endswith(".scn")]

def check(text, threads):
    lines = [json.loads(l) for l in text.splitlines()]  # every line parses
    want = len(scns) + 12
    assert len(lines) == want, \
        f"{threads} workers: expected {want} response lines, got {len(lines)}"
    for l in lines:
        json.dumps(l)  # and re-serialise
        assert ("verdict" in l) or (l.get("ok") is False) or \
            ("requests" in l), l
    errors = [l for l in lines if l.get("ok") is False]
    # The malformed scenario fails at parse time, before it has an id or
    # reaches the service: one in-band error line, id empty.
    assert len(errors) == 1 and errors[0]["id"] == "", errors
    sweep0 = {l["sweep_index"]: l
              for l in lines if l.get("id", "").startswith("s0[")}
    verdicts = {k: l["verdict"] for k, l in sweep0.items()}
    assert verdicts == {0: "unsat", 1: "unsat", 2: "sat", 3: "sat"}, verdicts
    # T_CZ 5 (point 2) needs five meters, which fit under T_CZ 8.
    assert sweep0[3]["implied"] and sweep0[3]["implied_by"] == 2, sweep0[3]
    rep = [l for l in lines if l.get("id") == "rep"]
    assert len(rep) == 1 and rep[0]["memo_hit"], rep
    # The file verifies, the repeat, the inline one and 2x4 sweep points
    # reached the service; the parse error did not.
    stats = lines[-1]
    assert stats["requests"] == len(scns) + 10 and stats["errors"] == 0, stats
    assert stats["implied"] >= 1, stats
    p99, hits, implied = (stats["solve_p99_us"], stats["session_hits"],
                          stats["implied"])
    print(f"ci: analytics_server at {threads} worker(s): {len(lines)} "
          f"response lines OK (p99 solve {p99} us, session hits {hits}, "
          f"implied {implied})")
    return {l["id"]: l["verdict"] for l in lines if "verdict" in l}

jobs = os.environ["JOBS"]
one = check(os.environ["ONE"], 1)
many = check(os.environ["MANY"], jobs)
assert one == many, {k: (one[k], many.get(k)) for k in one
                     if one[k] != many.get(k)}
print(f"ci: analytics_server verdicts identical at 1 and {jobs} workers "
      f"({len(one)} ids)")
'
else
  echo "== ci: analytics_server smoke skipped (no python3) =="
fi

# Microbench smoke: the SMT microbenchmarks must still run and emit valid
# google-benchmark JSON under --json (one object, non-empty "benchmarks").
# A single repetition with a tiny time budget — this guards the harness and
# the bench registrations, not the timings.
if command -v python3 >/dev/null 2>&1; then
  echo "== ci: micro_smt smoke =="
  micro=""
  for candidate in build/bench/micro_smt build/default/bench/micro_smt; do
    [ -x "${candidate}" ] && micro="${candidate}" && break
  done
  if [ -z "${micro}" ]; then
    echo "ci: micro_smt binary not found" >&2
    exit 1
  fi
  "${micro}" --json --benchmark_min_time=0.01 \
      --benchmark_filter='BM_SimplexCheckFeasibility|BM_TheoryPropagation|BM_SimplexFloatFilter|BM_LpScreen|BM_SimplexFactorUpdate|BM_Ftran|BM_RationalNormalizeCanonical' \
    2>/dev/null | python3 -c '
import json, sys
d = json.load(sys.stdin)  # exactly one JSON object on stdout
names = [b["name"] for b in d["benchmarks"]]
assert names, "micro_smt reported no benchmarks"
for want in ("BM_SimplexCheckFeasibility/0", "BM_SimplexCheckFeasibility/1",
             "BM_TheoryPropagation/0", "BM_TheoryPropagation/1",
             "BM_SimplexFloatFilter/0", "BM_SimplexFloatFilter/1",
             "BM_LpScreen/0", "BM_LpScreen/1",
             "BM_SimplexFactorUpdate/0", "BM_SimplexFactorUpdate/1",
             "BM_Ftran/4", "BM_Ftran/64", "BM_Ftran/1024",
             "BM_RationalNormalizeCanonical/0",
             "BM_RationalNormalizeCanonical/1"):
    assert any(n.startswith(want) for n in names), f"missing {want}"
print(f"ci: micro_smt JSON OK ({len(names)} benchmarks)")
'
else
  echo "== ci: micro_smt smoke skipped (no python3) =="
fi

# Float-filter + screen + eta cross-check: the full fig4a suite once with
# the double-precision filter (default, LP screen annotating each row,
# eta-factorised tableau), once exact-only, once with --no-screen, and
# once with --no-eta (eager row substitution), asserting the verdict of
# every experiment is bit-identical across all four runs. The filter
# certifies every visible verdict on the exact DeltaRational state, the
# screen is a pure front-end that may only prove Unsat, and the eta file
# is a pure representation change whose float mirrors are composed
# identically in both modes — so ANY divergence here is a soundness bug,
# not a matter of tolerance. The three solver modes (filtered, exact,
# eager) must also run the same search, not only reach the same verdict:
# every experiment's decisions, conflicts, propagations, theory
# propagations and pivots agree across them. The screen only annotates
# fig4a rows, so the --no-screen run is compared by verdict. The screened
# run additionally proves the screen's Infeasible claims agree with the
# solver: every row it marks screened=1 must carry an unsat verdict. Every
# experiment row must also carry the boolean-propagation time
# (propagate_us), so the phase split stays attributable.
if command -v python3 >/dev/null 2>&1; then
  echo "== ci: fig4a float-filter/screen/eta cross-check =="
  fig4a=""
  for candidate in build/bench/fig4a_verification_scaling \
                   build/default/bench/fig4a_verification_scaling; do
    [ -x "${candidate}" ] && fig4a="${candidate}" && break
  done
  if [ -z "${fig4a}" ]; then
    echo "ci: fig4a_verification_scaling binary not found" >&2
    exit 1
  fi
  { "${fig4a}" --json; echo "===SPLIT==="; "${fig4a}" --json --exact-simplex; \
    echo "===SPLIT==="; "${fig4a}" --json --no-screen; \
    echo "===SPLIT==="; "${fig4a}" --json --no-eta; } \
    | python3 -c '
import json, sys
SEARCH = ("decisions", "conflicts", "propagations", "theory_propagations",
          "pivots")
runs = [{}]
searches = [{}]
screened = 0
eager_etas = 0
for line in sys.stdin:
    line = line.strip()
    if line == "===SPLIT===":
        runs.append({})
        searches.append({})
        continue
    if not line.startswith("{"):
        continue
    row = json.loads(line)
    if row.get("bench") == "fig4a" and "verdict" in row:
        assert "propagate_us" in row, f"row without propagate_us: {row}"
        runs[-1][row["case"]] = row["verdict"]
        searches[-1][row["case"]] = tuple(row[k] for k in SEARCH)
        if len(runs) == 1 and row.get("screened"):
            screened += 1
            assert row["verdict"] == "unsat", \
                f"screen claimed infeasible on a sat case: {row}"
        if len(runs) == 4:
            eager_etas += row.get("eta_updates", 0)
filtered, exact, unscreened, eager = runs
assert filtered and \
    set(filtered) == set(exact) == set(unscreened) == set(eager), \
    "case sets diverged"
assert eager_etas == 0, \
    f"--no-eta run still recorded {eager_etas} eta updates"
for case, verdict in sorted(filtered.items()):
    assert verdict == exact[case] == unscreened[case] == eager[case], \
        f"{case}: filtered={verdict} exact={exact[case]} " \
        f"unscreened={unscreened[case]} eager={eager[case]}"
filteredS, exactS, _, eagerS = searches
for case, search in sorted(filteredS.items()):
    assert search == exactS[case] == eagerS[case], \
        f"{case}: {SEARCH} filtered={search} exact={exactS[case]} " \
        f"eager={eagerS[case]}"
print(f"ci: fig4a verdicts identical across {len(filtered)} experiments "
      f"x 4 modes ({screened} screen-proved); searches identical "
      f"filtered/exact/eager")
'
else
  echo "== ci: fig4a cross-check skipped (no python3) =="
fi

# Screen soundness gate: screen_sweep replays the ieee300 secured sweep
# with the LP screen on and off and exits nonzero if any verdict differs
# (or if the screened pass fails to be faster). This is the sweep where
# the screen actually fires — fig4a above covers the all-feasible side.
echo "== ci: screen_sweep soundness gate =="
sweep=""
for candidate in build/bench/screen_sweep build/default/bench/screen_sweep; do
  [ -x "${candidate}" ] && sweep="${candidate}" && break
done
if [ -z "${sweep}" ]; then
  echo "ci: screen_sweep binary not found" >&2
  exit 1
fi
"${sweep}"
echo "== ci: all stages passed =="
