"""Tests of the benchmark: its statistics helpers, its metric list against
BENCHMARK.json, and a smoke-size run of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Helpers(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 50), 50)
        self.assertEqual(run.percentile(xs, 99), 99)
        self.assertEqual(run.percentile(xs, 100), 100)
        self.assertEqual(run.percentile([7.0], 99), 7.0)
        self.assertEqual(run.percentile([3, 1, 2], 0), 1)
        self.assertTrue(math.isnan(run.percentile([], 50)))

    def test_failed_requests_sort_last(self):
        xs = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(run.percentile(xs, 98), 1.0)
        self.assertEqual(run.percentile(xs, 99), math.inf)

    def test_geomean(self):
        self.assertAlmostEqual(run.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(run.geomean([2.0, 2.0, 2.0]), 2.0)
        self.assertTrue(math.isnan(run.geomean([])))
        self.assertTrue(math.isnan(run.geomean([1.0, 0.0])))

    def test_latency_counts_from_the_due_time(self):
        # Sent 3 ms late, answered 10 ms after it was sent.
        self.assertEqual(run.due_latency_ms(100.0, 103.0, 10.0, True), 13.0)
        # On time.
        self.assertEqual(run.due_latency_ms(5.0, 5.0, 2.5, True), 2.5)
        # A failed request misses every limit.
        self.assertEqual(run.due_latency_ms(5.0, 5.0, 2.5, False), math.inf)

    def test_share_within_counts_failures_as_misses(self):
        self.assertEqual(run.share_within([1.0, 30.0, math.inf, 5.0], [25.0] * 4), 50.0)
        self.assertEqual(run.share_within([20.0, 200.0], [25.0, 250.0]), 100.0)
        self.assertTrue(math.isnan(run.share_within([], [])))


def fake_run(trace):
    return run.Run(None, None, None, "test", 7, 1.0, trace)


def zoo_output(latency_ms, peak_rss_mb=100.0):
    """What a zoo process prints, with the given SmartMem/baseline reports."""
    return {"latency_ms": latency_ms, "job_ms": [5.0, 6.0], "job_ok": [1, 1], "setup_s": 0.5,
            "peak_rss_mb": peak_rss_mb, "zoo_s": 3.0, "compile_s": 1.0,
            "layers": {"estimate_ms": 2.0, "kernels": 10}}


def serve_output(sim_ms, peak_rss_mb=100.0):
    """What a serve process prints: two requests, both served on time."""
    return {"setup_s": 1.0, "zoo_s": 0.5, "compile_s": 0.2, "sim_ms": sim_ms,
            "peak_rss_mb": peak_rss_mb, "due_ms": [0.0, 4.0], "sent_ms": [0.0, 4.5],
            "wall_ms": [3.0, 8.0], "ok": [1, 1], "deadline_ms": [25.0, 250.0]}


class MissingValues(unittest.TestCase):
    """A report or probe the process could not produce is a counted failed
    op, and the result line is still printed."""

    def all_smartmem(self, **baselines):
        lat = {f"{m}/SmartMem": 2.0 for m in run.MODELS}
        lat.update(baselines)
        return lat

    def test_zoo_with_a_missing_smartmem_report(self):
        lat = self.all_smartmem()
        del lat["Swin/SmartMem"]
        r = fake_run(False)
        values = run.zoo_metrics(r, [zoo_output(lat, peak_rss_mb=None)], [], [0.5])
        self.assertEqual(values["sim.latency_geomean_ms"], 0.0)
        self.assertEqual(values["peak_rss_mb"], 0.0)
        self.assertEqual(values["zoo_s"], 3.0)
        self.assertEqual(r.failed, 2)
        self.assertTrue(any("Swin" in f for f in r.failures), r.failures)
        result = run.result_line(r, values, run.END_TO_END)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)

    def test_zoo_traced_with_a_missing_smartmem_report(self):
        lat = self.all_smartmem(**{"Swin/MNN": 8.0, "ViT/MNN": 4.0, "RegNet/TFLite": None})
        del lat["Swin/SmartMem"]
        r = fake_run(True)
        out = zoo_output(lat)
        values = run.zoo_metrics(r, [out], [out], [0.5])
        # Swin has no SmartMem latency, so no speedup over MNN; the TFLite
        # report is null.
        self.assertEqual(values["sim.speedup_vs_mnn"], 0.0)
        self.assertEqual(values["sim.speedup_vs_tflite"], 0.0)
        self.assertEqual(values["sim.ViT.latency_ms"], 2.0)
        result = run.result_line(r, values, run.PER_LAYER)
        self.assertEqual(result["metrics"]["sim.Swin.latency_ms"]["value"], 0.0)
        self.assertEqual(result["failed"], 3)
        self.assertEqual(result["metrics"]["estimate_ms"]["value"], 2.0)

    def test_serve_with_a_null_setup_latency(self):
        r = fake_run(False)
        out = serve_output([2.0, None, 4.0], peak_rss_mb=None)
        values = run.serve_metrics(r, [out], out, out)
        self.assertEqual(values["sim.latency_geomean_ms"], 0.0)
        self.assertEqual(values["peak_rss_mb"], 0.0)
        self.assertEqual(values["serve.p50_ms"], 3.0)
        self.assertEqual(values["serve.slo_met_pct"], 100.0)
        result = run.result_line(r, values, run.END_TO_END)
        self.assertEqual(result["failed"], 2)

    def test_serve_without_failures(self):
        r = fake_run(False)
        out = serve_output([2.0, 8.0])
        values = run.serve_metrics(r, [out], out, out)
        self.assertAlmostEqual(values["sim.latency_geomean_ms"], 4.0)
        self.assertEqual(run.result_line(r, values, run.END_TO_END)["failed"], 0)


class MetricList(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        s = spec()
        self.assertEqual({m["name"]: m["unit"] for m in s["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in s["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in s["workloads"]], list(run.WORKLOADS))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class Smoke(unittest.TestCase):
    """A one-second run of each workload, traced and untraced: every named
    metric is printed with its unit, and no operation fails."""

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode()[-2000:])
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr.decode()[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result["metrics"]

    def test_zoo_cold(self):
        self.run_workload("zoo-cold", 0)
        layers = self.run_workload("zoo-cold", 1)
        self.assertGreater(layers["pass.streamline_ms"]["value"], 0)
        self.assertEqual(layers["session.disk_hits"]["value"], 0)

    def test_zoo_warm(self):
        self.run_workload("zoo-warm", 0)
        layers = self.run_workload("zoo-warm", 1)
        # Every compile is a disk hit: no pass runs.
        self.assertEqual(layers["session.misses"]["value"], 0)
        self.assertEqual(layers["pass.streamline_ms"]["value"], 0)

    def test_serve_zipf(self):
        self.run_workload("serve-zipf", 0)
        layers = self.run_workload("serve-zipf", 1)
        self.assertEqual(layers["serve.compile_hit_pct"]["value"], 100.0)
        self.assertGreater(layers["serve.batches"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
