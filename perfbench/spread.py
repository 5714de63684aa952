#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on each workload (trace off) and prints,
per metric, the median of the runs and the distance between their first and
third quartiles as a share of that median, next to the metric's bound.

    python3 perfbench/spread.py --seeds 1-10 --seconds 10 [--workload NAME ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", action="append", choices=metrics.WORKLOADS)
    args = parser.parse_args()
    run = Path(__file__).resolve().parent / "run.py"
    for workload in args.workload or metrics.WORKLOADS:
        values = {m.name: [] for m in metrics.END_TO_END}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for m in metrics.END_TO_END:
            v = values[m.name]
            share = spread(v) if len(v) > 1 else 0.0
            print(f"  {m.name:<24} median {statistics.median(v):<12.6g} spread {share:8.4f} "
                  f"bound {m.bound}  {'ok' if share <= m.bound / 3 else 'WIDE'}  "
                  f"runs {' '.join(f'{x:.4g}' for x in v)}")


if __name__ == "__main__":
    main()
