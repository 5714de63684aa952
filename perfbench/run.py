#!/usr/bin/env python3
"""Campaign benchmark: one workload, one closed-loop run.

Builds the benchmark binary (perfbench/campaign_bench.cpp) against the nbmg library in an
optimized build, runs it for the requested seconds, prints every metric by
name with its unit, the digest of the workload's outputs, and as the last
line one JSON object:

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced replay (see perfbench/metrics.py).

    python3 perfbench/run.py --workload rach_storm --seed 1 --seconds 10 --trace 0
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / ".bench_build"


def build():
    """Configures and builds the benchmark binary; the build output goes to stderr."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(out), "--target", "campaign_bench", "-j", jobs],
        ]
        for step in steps:
            subprocess.run(step, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "campaign_bench"


def describe(metric, value, detail=""):
    return f"  {metric.name:<44} {value:>16.6g} {metric.unit:<6} ({metric.better} is better){detail}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    work = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work", str(work)]
    try:
        run = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
        doc = json.loads(run.stdout)
    except (subprocess.SubprocessError, OSError, ValueError) as error:
        print(f"perfbench: campaign_bench failed: {error}", file=sys.stderr)
        return 1

    n = len(doc["wall_s"])
    print(f"workload {doc['workload']} seed {doc['seed']}: {doc['devices']} devices x "
          f"{doc['runs']} runs x {doc['campaigns']} campaigns, {doc['threads']} threads; "
          f"{n} timed executions after a {doc['warmup_s']:.3f} s warm-up, "
          f"{len(doc['setup_s'])} set-ups")
    if args.trace:
        values = metrics.per_layer_values(doc)
        catalogue = metrics.PER_LAYER
    else:
        values = metrics.end_to_end_values(doc)
        catalogue = metrics.END_TO_END
    samples = {"wall_s": doc["wall_s"], "cpu_s": doc["cpu_s"], "setup_s": doc["setup_s"]}
    for metric in catalogue:
        detail = ""
        s = samples.get(metric.name)
        if s:
            detail = f"  median of {len(s)}, min {min(s):.6g}, max {max(s):.6g}"
        print(describe(metric, values[metric.name], detail))
    print(f"digest {doc['workload']} {doc['digest']}")
    for failure in doc["failures"]:
        print(f"FAILED: {failure}")

    result = {
        "correct": doc["failed"] == 0 and not doc["failures"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
