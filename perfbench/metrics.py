"""Metric catalogue and arithmetic of the campaign benchmark.

The catalogue names every metric the benchmark reports, with its unit, the
direction that is better and, for a per-layer metric, the end-to-end metric
and workloads it should move.  BENCHMARK.json at the repository root lists
the same metrics; test_perfbench.py keeps the two in step.

The arithmetic turns the raw document of perfbench/campaign_bench.cpp into
metric values: medians of the untraced executions for the end-to-end
metrics, and span sums, span counts and per-layer self times of the traced
replay for the per-layer metrics.
"""

import re
import statistics
from collections import defaultdict
from typing import NamedTuple

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

WORKLOADS = ("rach_storm", "drsc_plan", "observed_rollout")
ALL = WORKLOADS
MECHANISMS = ("unicast", "dr-sc", "da-sc", "dr-si")
# Layers with self-time metrics: the first component of a span name.  Spans
# of the benchmark itself ("bench.*") are the harness, not a layer.
LAYERS = ("scenario", "traffic", "core", "setcover", "multicell", "telemetry", "snapshot")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    # End-to-end metrics: the share of the parent's median by which the
    # metric may worsen before a change counts as a regression.
    bound: float | None = None
    # Per-layer metrics: the end-to-end metrics this layer metric should
    # move, and on which workloads.
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()
    # Per-layer metrics: workloads on which the prediction is no change.
    bypass: tuple[str, ...] = ()


# The timing bounds are wide because on a shared 4-vCPU Xeon VM the speed of
# the same code drifts by 10-40% over minutes, and no repetition inside one
# run removes that.
END_TO_END = (
    Metric("device_campaigns_per_s", "1/s", "higher", 0.20),
    Metric("wall_s", "s", "lower", 0.20),
    Metric("cpu_s", "s", "lower", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
    Metric("setup_s", "s", "lower", 0.25),
    # 1 - fail_frac: the share of executions that exit cleanly and pass the
    # output check.  Reported this way because an end-to-end metric must
    # never read 0; `failed` in the result line carries the raw count.
    Metric("ok_frac", "ratio", "higher", 0.01),
)


def _layer(name, unit, better, moves, on, bypass=()):
    return Metric(name, unit, better, None, moves, on, bypass)


def _per_layer():
    setup = (("setup_s",), ALL)
    plan = (("wall_s",), ("drsc_plan",), ("rach_storm",))
    campaign = (("wall_s",), ("rach_storm",), ("drsc_plan",))
    fanout = (("wall_s",), ("observed_rollout",))
    observed = (("wall_s", "peak_rss_mb"), ("observed_rollout",))
    snapshot = (("wall_s",), ("observed_rollout",))
    metrics = [
        _layer("scenario.parse_ms", "ms", "lower", *setup),
        _layer("traffic.population_ms", "ms", "lower", *setup),
        _layer("traffic.devices", "count", "higher", *setup),
    ]
    for m in MECHANISMS:
        metrics += [
            _layer(f"core.plan_s.{m}", "s", "lower", *plan),
            _layer(f"core.plan.transmissions.{m}", "count", "lower", *plan),
            _layer(f"core.plan.paging_entries.{m}", "count", "lower", *plan),
        ]
    metrics += [
        _layer("setcover.enumerate_s", "s", "lower", *plan),
        _layer("setcover.window_cover_s", "s", "lower", *plan),
        _layer("setcover.po_events", "count", "lower", *plan),
        _layer("setcover.windows", "count", "lower", *plan),
        _layer("setcover.ns_per_event", "ns", "lower", *plan),
    ]
    for m in MECHANISMS:
        metrics += [
            _layer(f"core.campaign_s.{m}", "s", "lower", *campaign),
            _layer(f"nbiot.rach_attempts.{m}", "count", "lower", *campaign),
            _layer(f"nbiot.rach_collisions.{m}", "count", "lower", *campaign),
            _layer(f"nbiot.rach_failures.{m}", "count", "lower", *campaign),
            _layer(f"nbiot.paging_messages.{m}", "count", "lower", *campaign),
            _layer(f"core.recovery_transmissions.{m}", "count", "lower", *campaign),
            _layer(f"core.bytes_on_air.{m}", "bytes", "lower", *campaign),
            _layer(f"nbiot.rach_success_ratio.{m}", "ratio", "higher", *campaign),
            _layer(f"core.recovery_share.{m}", "ratio", "lower", *campaign),
            _layer(f"core.campaign_ns_per_rach_attempt.{m}", "ns", "lower", *campaign),
        ]
    metrics += [
        _layer("multicell.assign_ms", "ms", "lower", *fanout),
        _layer("multicell.cell_devices_max", "count", "lower", *fanout),
        _layer("multicell.cell_devices_p50", "count", "higher", *fanout),
        _layer("multicell.deployment_s", "s", "lower", *fanout),
        _layer("multicell.coordinate_ms", "ms", "lower", *fanout),
        _layer("multicell.backhaul_redelivered_bytes", "bytes", "lower", *fanout),
        _layer("faults.churn_leaves", "count", "lower", *fanout),
        _layer("faults.redelivery_bytes", "bytes", "lower", *fanout),
        _layer("multicell.cell_task_max_s", "s", "lower", *fanout),
        _layer("multicell.cell_task_p50_s", "s", "lower", *fanout),
        _layer("core.sweep.parallel_eff", "ratio", "higher", *fanout),
        _layer("core.sweep.idle_s", "s", "lower", *fanout),
        _layer("telemetry.trace_records", "count", "lower", *observed),
        _layer("telemetry.trace_bytes", "bytes", "lower", *observed),
        _layer("telemetry.trace_export_s", "s", "lower", *observed),
        _layer("telemetry.metrics_export_ms", "ms", "lower", *observed),
        _layer("telemetry.timeline_export_ms", "ms", "lower", *observed),
        _layer("telemetry.overhead_s", "s", "lower", *observed),
        _layer("snapshot.bytes", "bytes", "lower", *snapshot),
        _layer("snapshot.checkpoint_overhead_s", "s", "lower", *snapshot),
        _layer("snapshot.save_final_s", "s", "lower", *snapshot),
        _layer("snapshot.write_wait_s", "s", "lower", *snapshot),
        _layer("snapshot.load_s", "s", "lower", *snapshot),
        _layer("snapshot.resume_s", "s", "lower", *snapshot),
        _layer("bench.trace_overhead_s", "s", "lower", ("wall_s",), ALL),
    ]
    layer_moves = {
        "scenario": setup,
        "traffic": setup,
        "core": campaign,
        "setcover": plan,
        "multicell": fanout,
        "telemetry": observed,
        "snapshot": snapshot,
    }
    for layer in LAYERS:
        metrics.append(_layer(f"layer.{layer}.self_s", "s", "lower", *layer_moves[layer]))
    return tuple(metrics)


PER_LAYER = _per_layer()


# --- arithmetic --------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span, by span id: its duration minus the part of
    its interval that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        inside = [
            (max(start, c["start"]), min(end, c["end"]))
            for c in children[span["id"]]
            if c["end"] > start and c["start"] < end
        ]
        out[span["id"]] = (end - start) - _covered(inside)
    return out


def layer_self_times(spans):
    """Self time summed over the spans of each layer in LAYERS."""
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        if layer in totals:
            totals[layer] += own[span["id"]]
    return totals


def end_to_end_values(doc):
    wall = median(doc["wall_s"])
    work = doc["devices"] * doc["runs"] * doc["campaigns"]
    attempted = doc["attempted"]
    return {
        "device_campaigns_per_s": ratio(work, wall),
        "wall_s": wall,
        "cpu_s": median(doc["cpu_s"]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "setup_s": median(doc["setup_s"]),
        "ok_frac": ratio(attempted - doc["failed"], attempted),
    }


def per_layer_values(doc):
    spans = doc["spans"]
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def duration(span):
        return span["end"] - span["start"]

    def total(name):
        return sum(duration(s) for s in by_name[name])

    def count(name, key):
        return sum(s["counts"].get(key, 0.0) for s in by_name[name])

    def first(name):
        return by_name[name][0] if by_name[name] else None

    v = {
        "scenario.parse_ms": 1e3 * total("scenario.parse"),
        "traffic.population_ms": 1e3 * total("traffic.population"),
        "traffic.devices": count("traffic.population", "devices"),
    }
    for m in MECHANISMS:
        plan, campaign = f"core.plan.{m}", f"core.campaign.{m}"
        attempts = count(campaign, "rach_attempts")
        collisions = count(campaign, "rach_collisions")
        recovery = count(campaign, "recovery_transmissions")
        v[f"core.plan_s.{m}"] = total(plan)
        v[f"core.plan.transmissions.{m}"] = count(plan, "transmissions")
        v[f"core.plan.paging_entries.{m}"] = count(plan, "paging_entries")
        v[f"core.campaign_s.{m}"] = total(campaign)
        v[f"nbiot.rach_attempts.{m}"] = attempts
        v[f"nbiot.rach_collisions.{m}"] = collisions
        v[f"nbiot.rach_failures.{m}"] = count(campaign, "rach_failures")
        v[f"nbiot.paging_messages.{m}"] = count(campaign, "paging_messages")
        v[f"core.recovery_transmissions.{m}"] = recovery
        v[f"core.bytes_on_air.{m}"] = count(campaign, "bytes_on_air")
        v[f"nbiot.rach_success_ratio.{m}"] = ratio(attempts - collisions, attempts)
        v[f"core.recovery_share.{m}"] = ratio(count(campaign, "recovered_devices"),
                                              count(campaign, "devices"))
        v[f"core.campaign_ns_per_rach_attempt.{m}"] = ratio(1e9 * total(campaign), attempts)

    events = count("setcover.enumerate", "po_events")
    v["setcover.enumerate_s"] = total("setcover.enumerate")
    v["setcover.window_cover_s"] = total("setcover.window_cover")
    v["setcover.po_events"] = events
    v["setcover.windows"] = count("setcover.window_cover", "windows")
    v["setcover.ns_per_event"] = ratio(1e9 * total("setcover.window_cover"), events)

    tasks = by_name["multicell.cell_task"]
    campaigns = [s for name, group in by_name.items() if name.startswith("core.campaign.")
                 for s in group]
    v["multicell.assign_ms"] = 1e3 * total("multicell.assign")
    v["multicell.cell_devices_max"] = max((s["counts"]["devices"] for s in tasks), default=0.0)
    v["multicell.cell_devices_p50"] = median([s["counts"]["devices"] for s in tasks])
    v["multicell.deployment_s"] = total("multicell.deployment")
    v["multicell.coordinate_ms"] = 1e3 * total("multicell.coordinate")
    v["multicell.backhaul_redelivered_bytes"] = count("multicell.coordinate", "redelivered_bytes")
    v["faults.churn_leaves"] = sum(s["counts"].get("churn_leaves", 0.0) for s in campaigns)
    v["faults.redelivery_bytes"] = sum(s["counts"].get("redelivery_bytes", 0.0) for s in campaigns)
    v["multicell.cell_task_max_s"] = max((duration(s) for s in tasks), default=0.0)
    v["multicell.cell_task_p50_s"] = median([duration(s) for s in tasks])

    # The engine call of the traced execution: the deployment for a
    # multicell workload, the whole replay for a single-cell one.
    # The traced run is skipped when the warm-up already failed its check.
    engine = first("multicell.deployment") or first("bench.exec")
    wall, cpu, threads = 0.0, 0.0, 0.0
    if engine:
        wall, cpu = duration(engine), engine["counts"]["cpu_s"]
        threads = engine["counts"]["threads"]
    v["core.sweep.parallel_eff"] = ratio(cpu, wall * threads)
    v["core.sweep.idle_s"] = wall * threads - cpu

    v["telemetry.trace_records"] = count("telemetry.trace_export", "records")
    v["telemetry.trace_bytes"] = count("telemetry.trace_export", "bytes")
    v["telemetry.trace_export_s"] = total("telemetry.trace_export")
    v["telemetry.metrics_export_ms"] = 1e3 * total("telemetry.metrics_export")
    v["telemetry.timeline_export_ms"] = 1e3 * total("telemetry.timeline_export")

    plain = first("multicell.deployment.plain")
    collector = first("multicell.deployment.collector")
    v["snapshot.bytes"] = count("snapshot.save_final", "bytes")
    v["snapshot.save_final_s"] = total("snapshot.save_final")
    v["snapshot.load_s"] = total("snapshot.load.resumed")
    v["snapshot.resume_s"] = total("snapshot.resume")
    if plain and collector:
        # With the collector minus without; with the checkpoint as well
        # minus the collector alone.  Write wait is the part of the
        # checkpoint's wall-time cost that no CPU time accounts for.
        overhead = wall - duration(collector)
        v["telemetry.overhead_s"] = duration(collector) - duration(plain)
        v["snapshot.checkpoint_overhead_s"] = overhead
        v["snapshot.write_wait_s"] = overhead - (cpu - collector["counts"]["cpu_s"])
    else:
        v["telemetry.overhead_s"] = 0.0
        v["snapshot.checkpoint_overhead_s"] = 0.0
        v["snapshot.write_wait_s"] = 0.0

    v["bench.trace_overhead_s"] = total("bench.exec") - median(doc["wall_s"])
    for layer, seconds in layer_self_times(spans).items():
        v[f"layer.{layer}.self_s"] = seconds
    return v
