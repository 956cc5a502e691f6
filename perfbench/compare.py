"""Summarise one set of benchmark runs, or compare a parent set with a change.

    python3 perfbench/compare.py runs.jsonl                 # spread per metric
    python3 perfbench/compare.py parent.jsonl change.jsonl  # verdict per metric

Inputs are files written by `sweep.py`.  For each workload and end-to-end
metric of BENCHMARK.json it prints the median and quartiles of each set.

One set: the spread (q3 - q1) / median against the metric's bound; a
spread under a third of the bound is steady.

Two sets: runs are paired by seed.  The change wins a pair when it reads
better than the parent (ties count for neither).  The verdict is
  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's quartile distance;
  unresolved  the parent's spread exceeds the bound, unless every change run
              beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.
Traced runs (trace 1) also compare every `.calls` count, which must repeat
exactly between runs of one commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def values_of(runs, metric):
    return {seed: rec["result"]["metrics"][metric]["value"]
            for seed, rec in runs.items() if metric in rec["result"]["metrics"]}


def verdict(parent, change, bound, lower_better):
    sign = 1.0 if lower_better else -1.0
    q1p, mp, q3p = quartiles(list(parent.values()))
    _, mc, _ = quartiles(list(change.values()))
    seeds = sorted(set(parent) & set(change))
    gains = [sign * (parent[s] - change[s]) for s in seeds]
    wins = sum(g > 0 for g in gains) / len(seeds) if seeds else 0.0
    gain = sign * (mp - mc)
    all_better = all(sign * (p - c) > 0 for p in parent.values()
                     for c in change.values())
    if wins >= 0.9 and gain > q3p - q1p:
        return wins, "improved"
    if (q3p - q1p) / abs(mp) > bound and not all_better:
        return wins, "unresolved"
    if -gain / abs(mp) > bound:
        return wins, "worse"
    return wins, "unchanged"


def summarise(runs, metrics):
    ok = True
    print(f"{'workload':14s} {'metric':12s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for workload, recs in sorted(runs.items()):
        bad = sum(r["result"]["failed"] for r in recs.values())
        for m in metrics:
            vals = list(values_of(recs, m["name"]).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med)
            bound = m["bound"]
            state = ("steady" if spread < bound / 3 else
                     "within bound" if spread <= bound else "UNSTEADY")
            if m["name"] == "setup_s":
                state += " (not gated)"
            elif spread > bound:
                ok = False
            print(f"{workload:14s} {m['name']:12s} {len(vals):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f}  {state}")
        if bad:
            ok = False
            print(f"{workload:14s} {bad} failed operations")
    return ok


def compare(parent, change, metrics):
    ok = True
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>38s} "
          f"{'change median [q1, q3]':>38s} {'wins':>5s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in metrics:
            p = values_of(parent[workload], m["name"])
            c = values_of(change[workload], m["name"])
            if not p or not c:
                continue
            wins, word = verdict(p, c, m["bound"], m["better"] == "lower")
            ok &= word != "worse"
            qp, qc = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"{workload:14s} {m['name']:12s} "
                  f"{qp[1]:12.6g} [{qp[0]:10.6g}, {qp[2]:10.6g}] "
                  f"{qc[1]:12.6g} [{qc[0]:10.6g}, {qc[2]:10.6g}] {wins:5.2f}  {word}")
        for name, side in (("parent", parent), ("change", change)):
            bad = sum(r["result"]["failed"] for r in side[workload].values())
            if bad:
                print(f"{workload:14s} {name}: {bad} failed operations")
    return ok


def compare_calls(sets):
    """Every `.calls` count must repeat exactly across traced runs of a seed."""
    ok = True
    seen = {}
    for runs in sets:
        for workload, recs in runs.items():
            for seed, rec in recs.items():
                if rec.get("trace") != 1:
                    continue
                for name, m in rec["result"]["metrics"].items():
                    if name.endswith(".calls"):
                        seen.setdefault((workload, seed, name), set()).add(m["value"])
    for (workload, seed, name), vals in sorted(seen.items()):
        if len(vals) > 1:
            ok = False
            print(f"{workload} seed {seed}: {name} differs between runs: {sorted(vals)}")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="+", help="one set, or parent then change")
    args = ap.parse_args(argv)
    if len(args.runs) > 2:
        ap.error("give one or two run files")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sets = [load(p) for p in args.runs]
    ok = compare_calls(sets)
    if len(sets) == 1:
        ok &= summarise(sets[0], metrics)
    else:
        ok &= compare(sets[0], sets[1], metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
