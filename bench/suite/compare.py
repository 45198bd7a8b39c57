#!/usr/bin/env python3
"""Collects and compares runs of the repository benchmark.

Every bound, unit and direction comes from BENCHMARK.json at the root
of the checkout this script lives in.

  compare.py --collect OUT [--runs N] [--seed-base S] [--workload W]...
      Runs the benchmark command N times per workload, seeds S..S+N-1,
      untraced, and writes every run's result line to the set file OUT.

  compare.py --sets A B
      Repeatability check of two sets of the same code. For every
      end-to-end metric and workload: each set's spread (the distance
      between its first and third quartile over its median) must stay
      within the metric's bound (setup_s excepted), and B's median must
      not be worse than A's by more than the bound. Spreads above a
      third of the bound are flagged as noisy. The printed
      modelled_overhead_s medians must agree within 3%.

  compare.py --pairs PARENT CHANGE [--runs N] [--workload W]...
      Claims a gain only by the rule of the choosing-metrics guide: at
      least N >= 10 alternating pairs of runs of two checkouts, the
      change winning at least 9 of every 10 pairs (ties count for
      neither side), and a median gap larger than the parent's own
      spread between its quartiles. Every other metric must not be worse
      by more than its bound; where the parent's spread is wider than the
      bound, the metric is unresolved unless every change run beats
      every parent run.

Exits 1 when a check fails or a run was not correct.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
# Printed by every untraced run but kept out of its JSON result (it is
# bit-identical on PVMe); two sets of the same code must agree within 3%.
MODELLED = "modelled_overhead_s"
MODELLED_TOLERANCE = 0.03


def load_benchmark(root):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(root, bench, workload, seed):
    """One untraced run of the benchmark command in checkout `root`."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
    result["seed"] = seed
    # Every "metric <workload> <name> <value> <unit> n=<n>" line, the
    # informational ones outside the JSON result included.
    result["printed"] = {f[2]: float(f[3]) for f in map(str.split, lines)
                         if len(f) >= 5 and f[0] == "metric"}
    return result


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def spread(vals):
    """Quartile distance over the median, as statistics.quantiles gives it."""
    if len(vals) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` (negative: better)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def collect(args):
    bench = load_benchmark(ROOT)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    out = {"command": bench["command"], "run_seconds": bench["run_seconds"],
           "runs": {}}
    for name in names:
        runs = out["runs"].setdefault(name, [])
        for i in range(args.runs):
            seed = args.seed_base + i
            r = run_once(ROOT, bench, name, seed)
            runs.append(r)
            print(f"{name} seed={seed} correct={r['correct']}",
                  file=sys.stderr)
    pathlib.Path(args.collect).write_text(json.dumps(out, indent=1) + "\n")
    return all(r["correct"] for runs in out["runs"].values() for r in runs)


def all_correct(runs):
    return all(r["correct"] for r in runs)


def compare_sets(args):
    bench = load_benchmark(ROOT)
    sets = [json.loads(pathlib.Path(p).read_text()) for p in args.sets]
    ok = True
    print(f"{'workload':12} {'metric':14} {'bound':>6} {'median A':>12} "
          f"{'spread A':>9} {'median B':>12} {'spread B':>9} {'worse':>8}  "
          "verdict")
    for w in bench["workloads"]:
        name = w["name"]
        a, b = (s["runs"].get(name, []) for s in sets)
        if not a or not b:
            print(f"{name:12} missing from a set")
            ok = False
            continue
        if not (all_correct(a) and all_correct(b)):
            print(f"{name:12} has runs that were not correct")
            ok = False
        for m in bench["end_to_end"]:
            va, vb = values(a, m["name"]), values(b, m["name"])
            if not va or not vb:
                print(f"{name:12} {m['name']:14} missing")
                ok = False
                continue
            bound = m["bound"]
            sa, sb = spread(va), spread(vb)
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = worse_by(m, ma, mb)
            verdict = []
            if m["name"] != "setup_s":
                if max(sa, sb) > bound:
                    verdict.append("SPREAD>BOUND")
                elif max(sa, sb) > bound / 3:
                    verdict.append("noisy(>bound/3)")
            if worse > bound:
                verdict.append("MEDIAN-WORSE")
            ok = ok and not any(v.isupper() for v in verdict)
            print(f"{name:12} {m['name']:14} {bound:6.2f} {ma:12.6g} "
                  f"{sa:9.2%} {mb:12.6g} {sb:9.2%} {worse:8.2%}  "
                  f"{' '.join(verdict) or 'ok'}")
        va = [r["printed"][MODELLED] for r in a if MODELLED in r["printed"]]
        vb = [r["printed"][MODELLED] for r in b if MODELLED in r["printed"]]
        if va and vb:
            ma, mb = statistics.median(va), statistics.median(vb)
            gap = abs(mb - ma) / ma
            agrees = gap <= MODELLED_TOLERANCE
            ok = ok and agrees
            print(f"{name:12} {MODELLED} (printed, not in the JSON) "
                  f"{ma:.6g} vs {mb:.6g}: {gap:.2%} "
                  f"{'ok' if agrees else 'DIFFERS'} "
                  f"(tolerance {MODELLED_TOLERANCE:.0%})")
    return ok


def pairs(args):
    bench = load_benchmark(ROOT)
    if args.runs < 10:
        sys.exit("--pairs needs at least 10 pairs")
    parent, change = (pathlib.Path(p).resolve() for p in args.pairs)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        runs = {parent: [], change: []}
        for i in range(args.runs):
            order = (parent, change) if i % 2 == 0 else (change, parent)
            for side in order:
                runs[side].append(run_once(side, bench, name,
                                           args.seed_base + i))
        p, c = runs[parent], runs[change]
        if not (all_correct(p) and all_correct(c)):
            print(f"{name}: runs that were not correct")
            ok = False
        for m in bench["end_to_end"]:
            vp, vc = values(p, m["name"]), values(c, m["name"])
            if len(vp) != len(vc) or not vp:
                print(f"{name} {m['name']}: missing values")
                ok = False
                continue
            better = [worse_by(m, x, y) < 0 for x, y in zip(vp, vc)]
            worse = [worse_by(m, x, y) > 0 for x, y in zip(vp, vc)]
            wins = sum(better)
            mp, mc = statistics.median(vp), statistics.median(vc)
            q1, _, q3 = statistics.quantiles(vp, n=4)
            gap = worse_by(m, mp, mc)
            if wins >= 0.9 * len(vp) and gap < 0 and abs(mc - mp) > q3 - q1:
                verdict = "gain"
            elif spread(vp) > m["bound"]:
                beats_all = (max(vc) < min(vp) if m["better"] == "lower"
                             else min(vc) > max(vp))
                verdict = "better-every-run" if beats_all else "unresolved"
            elif gap > m["bound"]:
                verdict = "REGRESSION"
                ok = False
            else:
                verdict = "within-bound"
            print(f"{name:12} {m['name']:14} parent {mp:.6g} "
                  f"[{q1:.6g}, {q3:.6g}] change {mc:.6g} wins {wins}/"
                  f"{len(vp)} losses {sum(worse)} worse {gap:+.2%}  {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--collect", metavar="OUT")
    mode.add_argument("--sets", nargs=2, metavar=("A", "B"))
    mode.add_argument("--pairs", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    if args.collect:
        ok = collect(args)
    elif args.sets:
        ok = compare_sets(args)
    else:
        ok = pairs(args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
