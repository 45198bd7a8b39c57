#!/usr/bin/env python3
"""Smoke test of tmkbench: a short run of all four workloads.

  smoke_test.py TMKBENCH BENCHMARK_JSON WORKDIR

Runs `tmkbench --reps 3` with its output read through a pipe and checks
that every end-to-end metric of BENCHMARK.json is printed exactly once
per workload with its unit, that no line is printed twice (a forked rank
must not replay unflushed output), that failed_frac is 0 and that the
last line is the JSON result. Then runs the traced variant and checks
every per-layer metric and the trace file: valid JSON whose per-rank
spans nest inside the run span they name. Finally checks that a TMK_*
variable in the environment is refused by name.
"""

import collections
import json
import os
import pathlib
import subprocess
import sys

EPS_US = 0.002  # trace timestamps are printed to 1 ns


def fail(msg):
    sys.exit(f"FAIL: {msg}")


def run(cmd, env):
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_output(lines, workloads, metrics):
    counts = collections.Counter(lines)
    dup = [line for line, n in counts.items() if n > 1]
    if dup:
        fail(f"lines printed more than once: {dup[:3]}")
    printed = {}
    for line in lines:
        f = line.split()
        if f and f[0] == "metric":
            printed[(f[1], f[2])] = (float(f[3]), f[4])
    for w in workloads:
        for m in metrics:
            got = printed.get((w, m["name"]))
            if got is None:
                fail(f"{w}: metric {m['name']} not printed")
            if got[1] != m["unit"]:
                fail(f"{w}: {m['name']} printed in {got[1]}, not {m['unit']}")
    failed_frac = printed.get(("all", "failed_frac"))
    if failed_frac is None or failed_frac[0] != 0:
        fail(f"failed_frac is {failed_frac}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"result {lines[-1][:200]}")
    for w in workloads:
        for m in metrics:
            got = result["metrics"].get(f"{w}.{m['name']}")
            if got is None or got["unit"] != m["unit"]:
                fail(f"JSON lacks {w}.{m['name']} in {m['unit']}")


def check_trace(path, workloads):
    events = json.loads(pathlib.Path(path).read_text())["traceEvents"]
    runs = {e["args"]["run"]: e for e in events if e["name"] == "run"}
    ranks_seen = collections.defaultdict(set)
    for e in events:
        if e["name"] == "run":
            continue
        if e["args"].get("parent") != "run":
            fail(f"span {e['name']} names no parent")
        parent = runs.get(e["args"]["run"])
        if parent is None:
            fail(f"span {e['name']} of run {e['args']['run']} has no run span")
        if (e["ts"] + EPS_US < parent["ts"] or
                e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + EPS_US):
            fail(f"span {e['name']} rank {e['args']['rank']} of run "
                 f"{e['args']['run']} lies outside its run span")
        if e["name"] in ("spawn", "rank_run", "teardown"):
            label = parent["args"]["label"]
            ranks_seen[(label, e["name"])].add(e["args"]["rank"])
    for w in workloads:
        for name in ("spawn", "rank_run", "teardown"):
            if ranks_seen[(w, name)] != {0, 1, 2, 3}:
                fail(f"{w}: {name} spans for ranks {ranks_seen[(w, name)]}")


def main():
    tmkbench, benchmark_json, workdir = sys.argv[1:4]
    bench = json.loads(pathlib.Path(benchmark_json).read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    work = pathlib.Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TMK_")}

    code, lines, err = run([tmkbench, "--reps", "3"], env)
    if code != 0:
        fail(f"untraced run exited {code}: {err[-2000:]}")
    check_output(lines, workloads, bench["end_to_end"])

    trace = work / "trace.json"
    code, lines, err = run([tmkbench, "--reps", "3", f"--trace={trace}"], env)
    if code != 0:
        fail(f"traced run exited {code}: {err[-2000:]}")
    check_output(lines, workloads, bench["per_layer"])
    check_trace(trace, workloads)

    env["TMK_UPDATE_MODE"] = "off"
    code, lines, err = run([tmkbench, "--reps", "1"], env)
    if code == 0 or "TMK_UPDATE_MODE" not in err or any(
            line.startswith("{") for line in lines):
        fail("a TMK_* variable in the environment was not refused")
    print("tmkbench smoke test passed")


if __name__ == "__main__":
    main()
