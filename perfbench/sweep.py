"""Run the benchmark over several seeds, one run after another.

    python3 perfbench/sweep.py --out runs.jsonl --seeds 1-10 \
        --workload scatter --workload evolve [--trace 1] [--seconds 20]

Each run appends one JSON line {"workload", "seed", "trace", "result",
"report"} to --out; `compare.py` reads these files.  Seeds alternate between
workloads, so slow drift of the machine spreads evenly over them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=HERE.parent, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(f"{workload} seed {seed} failed "
                                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}\n")
                return 1
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "result": json.loads(lines[-1]),
                      "report": json.loads(lines[-2])}
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            metrics = record["result"]["metrics"]
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()
                              if args.trace == 0)
            print(f"{workload} seed {seed}: correct={record['result']['correct']} "
                  f"{shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
