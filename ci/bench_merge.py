#!/usr/bin/env python3
"""Merges N google-benchmark JSON recordings into one best-of-N file.

ci/bench.sh --repeat N runs microbench_kernels N times and hands the raw
recordings here.  For every benchmark we keep the entry from the run
with the smallest real_time (best-of-N is the standard defense against
one-off scheduler/thermal drift on a shared box — the 1.16x queue
reading that tripped the PR 5 review was exactly such a one-off) and
annotate it with the median across runs, so a future diff can tell "fast
machine moment" from "the code actually changed".

Output shape stays google-benchmark-compatible: {"context": ...,
"benchmarks": [...]}; consumers that read `real_time` get the min.  The
context block leads with the nbmg_* header keys documenting repeat count
and the noise band.

Usage: bench_merge.py OUT.json RAW1.json [RAW2.json ...]
"""

from __future__ import annotations

import json
import statistics
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, raw_paths = argv[0], argv[1:]

    runs = []
    for path in raw_paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))

    # name -> list of entries, one per run, in run order.
    by_name: dict[str, list[dict]] = {}
    order: list[str] = []
    for run in runs:
        for entry in run.get("benchmarks", []):
            if entry.get("run_type", "iteration") != "iteration":
                continue
            name = entry["name"]
            if name not in by_name:
                by_name[name] = []
                order.append(name)
            by_name[name].append(entry)

    merged = []
    for name in order:
        entries = by_name[name]
        best = min(entries, key=lambda e: e["real_time"])
        combined = dict(best)
        combined["nbmg_repeats"] = len(entries)
        combined["real_time_median"] = statistics.median(
            e["real_time"] for e in entries)
        combined["cpu_time_median"] = statistics.median(
            e["cpu_time"] for e in entries)
        merged.append(combined)

    context = {
        "nbmg_mode": f"best-of-{len(runs)} (ci/bench.sh --repeat)",
        "nbmg_noise_band":
            "ratios within ±15% of the previous BENCH_prN.json are noise "
            "(shared-tenancy VMs; num_cpus below is what the run saw); "
            "only flag a "
            "regression when BOTH the best-of-N real_time and "
            "real_time_median sit outside the band",
        "nbmg_fields":
            "real_time/cpu_time = min across repeats; "
            "real_time_median/cpu_time_median = median across repeats",
    }
    context.update(runs[0].get("context", {}))

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "benchmarks": merged}, fh, indent=1)
        fh.write("\n")
    print(f"bench_merge: wrote {out_path} "
          f"({len(merged)} benchmarks, best of {len(runs)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
