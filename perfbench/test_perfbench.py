"""Tests of the campaign benchmark's own arithmetic and catalogue.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def span(id_, name, start, end, parent=-1, **counts):
    return {"id": id_, "name": name, "parent": parent, "exec": 1, "start": start,
            "end": end, "counts": counts}


def bench_doc(spans=()):
    return {"workload": "rach_storm", "seed": 1, "devices": 100, "runs": 2, "campaigns": 3,
            "threads": 1, "setup_s": [0.3, 0.1, 0.2], "warmup_s": 1.0,
            "wall_s": [2.0, 4.0, 3.0], "cpu_s": [1.0, 1.5, 2.0], "attempted": 4,
            "failed": 1, "peak_rss_kb": 2048, "digest": "0", "failures": [],
            "spans": list(spans)}


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped_to_the_parent(self):
        spans = [
            span(0, "bench.exec", 0.0, 10.0),
            span(1, "core.plan.dr-sc", 1.0, 3.0, parent=0),
            span(2, "core.campaign.dr-sc", 2.0, 5.0, parent=0),  # overlaps span 1
            span(3, "setcover.enumerate", 8.0, 12.0, parent=0),  # runs past the parent
            span(4, "setcover.window_cover", 1.5, 2.5, parent=1),  # grandchild
        ]
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - (5.0 - 1.0) - (10.0 - 8.0))
        self.assertAlmostEqual(own[1], 2.0 - 1.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(7, "snapshot.load", 2.0, 2.5)]), {7: 0.5})

    def test_layer_totals_sum_self_times_and_skip_the_harness(self):
        spans = [
            span(0, "bench.exec", 0.0, 10.0),
            span(1, "core.plan.unicast", 0.0, 2.0, parent=0),
            span(2, "core.campaign.unicast", 2.0, 6.0, parent=0),
            span(3, "setcover.window_cover", 3.0, 4.0, parent=2),
        ]
        totals = metrics.layer_self_times(spans)
        self.assertEqual(set(totals), set(metrics.LAYERS))
        self.assertAlmostEqual(totals["core"], 2.0 + 3.0)
        self.assertAlmostEqual(totals["setcover"], 1.0)
        self.assertEqual(totals["multicell"], 0.0)


class CatalogueTest(unittest.TestCase):
    def all_metrics(self):
        return metrics.END_TO_END + metrics.PER_LAYER

    def test_names_follow_the_grammar_and_are_unique(self):
        names = [m.name for m in self.all_metrics()]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertTrue(metrics.NAME_RE.fullmatch(name), name)
        self.assertFalse(metrics.NAME_RE.fullmatch("core.plan s"))
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(metrics.PER_LAYER), 128)

    def test_every_metric_has_a_unit_and_a_direction(self):
        for m in self.all_metrics():
            self.assertTrue(metrics.UNIT_RE.fullmatch(m.unit), m.name)
            self.assertIn(m.better, ("higher", "lower"), m.name)

    def test_end_to_end_bounds(self):
        for m in metrics.END_TO_END:
            self.assertTrue(0 < m.bound <= 0.25, m.name)
        setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
        self.assertEqual((setup.unit, setup.better), ("s", "lower"))
        self.assertEqual(setup.bound, max(m.bound for m in metrics.END_TO_END))
        self.assertEqual([m.name for m in metrics.END_TO_END],
                         ["device_campaigns_per_s", "wall_s", "cpu_s", "peak_rss_mb",
                          "setup_s", "ok_frac"])

    def test_every_per_layer_metric_names_what_it_should_move(self):
        end_to_end = {m.name for m in metrics.END_TO_END}
        for m in metrics.PER_LAYER:
            self.assertIsNone(m.bound, m.name)
            self.assertTrue(m.moves and set(m.moves) <= end_to_end, m.name)
            self.assertTrue(m.on and set(m.on) <= set(metrics.WORKLOADS), m.name)
            self.assertTrue(set(m.bypass) <= set(metrics.WORKLOADS), m.name)
            self.assertFalse(set(m.bypass) & set(m.on), m.name)

    def test_layer_predictions(self):
        def target(name):
            m = next(m for m in metrics.PER_LAYER if m.name == name)
            return m.moves, m.on, m.bypass

        every = metrics.WORKLOADS
        self.assertEqual(target("scenario.parse_ms"), (("setup_s",), every, ()))
        self.assertEqual(target("traffic.population_ms"), (("setup_s",), every, ()))
        self.assertEqual(target("core.plan_s.dr-sc"),
                         (("wall_s",), ("drsc_plan",), ("rach_storm",)))
        self.assertEqual(target("setcover.window_cover_s")[:2], (("wall_s",), ("drsc_plan",)))
        self.assertEqual(target("core.campaign_ns_per_rach_attempt.da-sc"),
                         (("wall_s",), ("rach_storm",), ("drsc_plan",)))
        for name in ("multicell.cell_task_max_s", "faults.churn_leaves",
                     "core.sweep.parallel_eff"):
            self.assertEqual(target(name)[:2], (("wall_s",), ("observed_rollout",)), name)
        self.assertEqual(target("telemetry.overhead_s")[:2],
                         (("wall_s", "peak_rss_mb"), ("observed_rollout",)))
        self.assertEqual(target("snapshot.write_wait_s")[:2],
                         (("wall_s",), ("observed_rollout",)))
        for mechanism in metrics.MECHANISMS:
            for pattern in ("core.plan_s.{}", "core.campaign_s.{}", "nbiot.rach_attempts.{}",
                            "nbiot.rach_success_ratio.{}", "core.recovery_share.{}"):
                target(pattern.format(mechanism))


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_keys_and_command(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_workloads_match_the_benchmark_source(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(tuple(names), metrics.WORKLOADS)
        source = (HERE / "campaign_bench.cpp").read_text()
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            self.assertIn(f'{{"{w["name"]}"', source)

    def test_metrics_match_the_catalogue(self):
        self.assertEqual(
            self.spec["end_to_end"],
            [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
             for m in metrics.END_TO_END])
        self.assertEqual(
            self.spec["per_layer"],
            [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER])


class ValuesTest(unittest.TestCase):
    def test_end_to_end_values(self):
        values = metrics.end_to_end_values(bench_doc())
        self.assertEqual(set(values), {m.name for m in metrics.END_TO_END})
        self.assertEqual(values["wall_s"], 3.0)
        self.assertEqual(values["device_campaigns_per_s"], 100 * 2 * 3 / 3.0)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(values["ok_frac"], 0.75)

    def test_every_per_layer_metric_is_reported_even_for_unused_layers(self):
        doc = bench_doc([
            span(0, "bench.exec", 0.0, 4.0, cpu_s=3.0, threads=1),
            span(1, "core.plan.da-sc", 0.0, 1.0, parent=0, transmissions=1,
                 paging_entries=200),
            span(2, "core.campaign.da-sc", 1.0, 3.0, parent=0, rach_attempts=1000,
                 rach_collisions=990, rach_failures=0, paging_messages=300,
                 transmissions=40, recovery_transmissions=30, bytes_on_air=5000,
                 churn_leaves=0, redelivery_bytes=0, devices=100, recovered_devices=75),
        ])
        values = metrics.per_layer_values(doc)
        self.assertEqual(set(values), {m.name for m in metrics.PER_LAYER})
        self.assertAlmostEqual(values["nbiot.rach_success_ratio.da-sc"], 0.01)
        self.assertAlmostEqual(values["core.recovery_share.da-sc"], 0.75)
        self.assertAlmostEqual(values["core.campaign_ns_per_rach_attempt.da-sc"], 2e6)
        self.assertAlmostEqual(values["core.sweep.parallel_eff"], 0.75)
        self.assertAlmostEqual(values["bench.trace_overhead_s"], 1.0)
        self.assertAlmostEqual(values["layer.core.self_s"], 3.0)
        self.assertEqual(values["nbiot.rach_attempts.dr-sc"], 0)
        self.assertEqual(values["snapshot.resume_s"], 0)

    def test_a_run_without_spans_reports_zeros(self):
        doc = bench_doc()
        doc["wall_s"] = []
        values = metrics.per_layer_values(doc)
        self.assertEqual(set(values), {m.name for m in metrics.PER_LAYER})
        self.assertTrue(all(value == 0 for value in values.values()))

    def test_overheads_come_from_the_baseline_deployments(self):
        doc = bench_doc([
            span(0, "bench.exec", 0.0, 10.0),
            span(1, "multicell.deployment", 0.0, 3.0, parent=0, cpu_s=4.0, threads=4),
            span(2, "multicell.deployment.plain", 20.0, 21.0, cpu_s=3.5),
            span(3, "multicell.deployment.collector", 30.0, 31.5, cpu_s=3.8),
        ])
        values = metrics.per_layer_values(doc)
        self.assertAlmostEqual(values["telemetry.overhead_s"], 0.5)
        self.assertAlmostEqual(values["snapshot.checkpoint_overhead_s"], 1.5)
        self.assertAlmostEqual(values["snapshot.write_wait_s"], 1.5 - 0.2)
        self.assertAlmostEqual(values["core.sweep.idle_s"], 12.0 - 4.0)


if __name__ == "__main__":
    unittest.main()
