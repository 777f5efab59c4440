"""Run one workload with several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload scan --seeds 1-10

Prints, per metric, the median, the quartiles (statistics.quantiles with
n=4) and the spread: the interquartile distance as a share of the median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential, so
they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: outputs failed their checks")
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    for name in runs[0]:
        values = [run[name] for run in runs]
        mid = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid,) * 3
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound:g} {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"{name}: median {mid:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
