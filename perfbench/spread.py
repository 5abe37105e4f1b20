#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs each workload (default: every workload in BENCHMARK.json) untraced
once per seed, through run.py, and prints for each end-to-end metric
the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the quartile distance as a share of the median next to the
metric's bound. A spread above a third of the bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: correct=false", flush=True)
                ok = False
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in
                sorted(result["metrics"].items())), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                           else (v[0], v[0], v[0]))
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:14s} {m['name']:14s} median {med:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {share:.4f} "
                  f"bound {m['bound']}{flag}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
