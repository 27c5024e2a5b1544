#!/usr/bin/env python3
"""Tests for the bench_check.py perf gate, including the negative case:
a synthetic regression (QPS below the floor) must fail the gate."""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_check  # noqa: E402  (path set up above)

BASELINES = {
    "bench_distance_kernels": {
        "metrics": {},
        "ratios": {
            "skip_if_equal_config": "simd_level",
            "metrics": {
                "bm_l2sq_128/ns_per_op": {"min_speedup": 1.5},
                "bm_weightedmultiexact_4/ns_per_op": {"min_speedup": 1.5},
            },
        },
    },
    "bench_qps_recall": {
        "metrics": {
            "must/beam64/qps": {"min": 1000.0},
            "must/beam64/recall_at_10": {"min": 0.9},
        }
    },
    "bench_disk_index": {
        "metrics": {
            "bfs_aware_c64_p0/page_reads_per_query": {"max": 300.0},
        }
    },
    "bench_serving": {
        "metrics": {
            "steady/failed": {"max": 0.0},
            "saturation/scaling_4v1": {
                "min": 2.0,
                "skip_if_config_below": {"hardware_threads": 4},
            },
        }
    },
}


def report(bench, metrics):
    return {"bench": bench, "config": {}, "metrics": metrics,
            "timestamp": 1700000000}


class CheckReportTest(unittest.TestCase):
    def test_all_constraints_hold(self):
        r = report("bench_qps_recall",
                   {"must/beam64/qps": 22678.1,
                    "must/beam64/recall_at_10": 0.996})
        self.assertEqual(
            bench_check.check_report(r, BASELINES["bench_qps_recall"]), [])

    def test_synthetic_regression_fails(self):
        # The negative test: QPS collapsed to a tenth of the floor.
        r = report("bench_qps_recall",
                   {"must/beam64/qps": 100.0,
                    "must/beam64/recall_at_10": 0.996})
        violations = bench_check.check_report(
            r, BASELINES["bench_qps_recall"])
        self.assertEqual(len(violations), 1)
        self.assertIn("below floor", violations[0])
        self.assertIn("must/beam64/qps", violations[0])

    def test_ceiling_violation_fails(self):
        r = report("bench_disk_index",
                   {"bfs_aware_c64_p0/page_reads_per_query": 450.0})
        violations = bench_check.check_report(
            r, BASELINES["bench_disk_index"])
        self.assertEqual(len(violations), 1)
        self.assertIn("above ceiling", violations[0])

    def test_missing_metric_fails(self):
        r = report("bench_qps_recall", {"must/beam64/qps": 22678.1})
        violations = bench_check.check_report(
            r, BASELINES["bench_qps_recall"])
        self.assertEqual(len(violations), 1)
        self.assertIn("missing", violations[0])

    def test_boundary_values_pass(self):
        r = report("bench_qps_recall",
                   {"must/beam64/qps": 1000.0,
                    "must/beam64/recall_at_10": 0.9})
        self.assertEqual(
            bench_check.check_report(r, BASELINES["bench_qps_recall"]), [])


class ConfigFloorTest(unittest.TestCase):
    def serving(self, threads, scaling):
        r = report("bench_serving", {"steady/failed": 0.0,
                                     "saturation/scaling_4v1": scaling})
        if threads is not None:
            # Benches write config values as strings.
            r["config"]["hardware_threads"] = str(threads)
        return r

    def check(self, r):
        out = io.StringIO()
        violations = bench_check.check_report(
            r, BASELINES["bench_serving"], out=out)
        return violations, out.getvalue()

    def test_metric_below_its_config_floor_is_skipped_with_a_note(self):
        # Two hardware threads cannot run 4 workers at once: a ratio of
        # 1.0 is what such a runner measures, and must not fail the gate.
        violations, text = self.check(self.serving(2, 1.0))
        self.assertEqual(violations, [])
        self.assertIn("SKIP bench_serving", text)
        self.assertIn("saturation/scaling_4v1", text)
        self.assertIn("hardware_threads=2", text)

    def test_metric_at_its_config_floor_is_gated(self):
        violations, text = self.check(self.serving(4, 1.0))
        self.assertEqual(len(violations), 1)
        self.assertIn("saturation/scaling_4v1", violations[0])
        self.assertIn("below floor", violations[0])
        self.assertNotIn("SKIP", text)
        self.assertEqual(self.check(self.serving(8, 3.4))[0], [])

    def test_missing_config_value_fails(self):
        # A report that stops recording the config must not skip silently.
        violations, _ = self.check(self.serving(None, 1.0))
        self.assertEqual(len(violations), 1)
        self.assertIn("hardware_threads", violations[0])
        self.assertIn("missing", violations[0])
        violations, _ = self.check(self.serving("many", 3.4))
        self.assertEqual(len(violations), 1)
        self.assertIn("not a number", violations[0])


class RunTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baselines = self.write("baselines.json", BASELINES)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, obj):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        return path

    def run_gate(self, *reports):
        out = io.StringIO()
        code = bench_check.run(self.baselines, list(reports), out=out)
        return code, out.getvalue()

    def test_passing_reports_exit_zero(self):
        ok = self.write("ok.json", report(
            "bench_qps_recall",
            {"must/beam64/qps": 5000.0, "must/beam64/recall_at_10": 0.95}))
        code, text = self.run_gate(ok)
        self.assertEqual(code, 0)
        self.assertIn("PASS", text)

    def test_regression_exits_one(self):
        bad = self.write("bad.json", report(
            "bench_qps_recall",
            {"must/beam64/qps": 5.0, "must/beam64/recall_at_10": 0.95}))
        code, text = self.run_gate(bad)
        self.assertEqual(code, 1)
        self.assertIn("FAIL", text)
        self.assertIn("below floor", text)

    def test_unknown_bench_skips(self):
        other = self.write("other.json", report("bench_novel", {"x/y": 1.0}))
        code, text = self.run_gate(other)
        self.assertEqual(code, 0)
        self.assertIn("SKIP", text)

    def test_unreadable_report_fails(self):
        path = os.path.join(self.dir.name, "broken.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        code, text = self.run_gate(path)
        self.assertEqual(code, 1)
        self.assertIn("unreadable", text)

    def run_compare(self, ref, cand):
        out = io.StringIO()
        code = bench_check.run_compare(self.baselines, ref, cand, out=out)
        return code, out.getvalue()

    def kernels_report(self, level, l2, wme):
        return {"bench": "bench_distance_kernels",
                "config": {"simd_level": level},
                "metrics": {"bm_l2sq_128/ns_per_op": l2,
                            "bm_weightedmultiexact_4/ns_per_op": wme},
                "timestamp": 1700000000}

    def test_compare_passes_at_required_speedup(self):
        ref = self.write("scalar.json",
                         self.kernels_report("scalar", 24.0, 38.0))
        cand = self.write("simd.json",
                          self.kernels_report("avx2", 13.0, 25.0))
        code, text = self.run_compare(ref, cand)
        self.assertEqual(code, 0)
        self.assertIn("PASS compare", text)

    def test_compare_fails_below_required_speedup(self):
        ref = self.write("scalar.json",
                         self.kernels_report("scalar", 24.0, 38.0))
        cand = self.write("simd.json",
                          self.kernels_report("avx2", 20.0, 36.0))
        code, text = self.run_compare(ref, cand)
        self.assertEqual(code, 1)
        self.assertIn("below required 1.5x", text)

    def test_compare_skips_when_config_equal(self):
        # A runner without AVX2 resolves both runs to scalar: the ratio is
        # noise around 1.0x and must be skipped, not failed.
        ref = self.write("a.json", self.kernels_report("scalar", 24.0, 38.0))
        cand = self.write("b.json", self.kernels_report("scalar", 23.0, 39.0))
        code, text = self.run_compare(ref, cand)
        self.assertEqual(code, 0)
        self.assertIn("SKIP compare", text)
        self.assertIn("simd_level", text)

    def test_compare_missing_metric_fails(self):
        ref = self.write("scalar.json",
                         self.kernels_report("scalar", 24.0, 38.0))
        cand_obj = self.kernels_report("avx2", 13.0, 25.0)
        del cand_obj["metrics"]["bm_weightedmultiexact_4/ns_per_op"]
        cand = self.write("simd.json", cand_obj)
        code, text = self.run_compare(ref, cand)
        self.assertEqual(code, 1)
        self.assertIn("missing", text)

    def test_compare_bench_mismatch_fails(self):
        ref = self.write("scalar.json",
                         self.kernels_report("scalar", 24.0, 38.0))
        cand = self.write("other.json", report("bench_qps_recall", {}))
        code, text = self.run_compare(ref, cand)
        self.assertEqual(code, 1)
        self.assertIn("mismatch", text)

    def test_compare_without_ratio_baselines_skips(self):
        a = self.write("a.json", report("bench_qps_recall",
                                        {"must/beam64/qps": 5000.0}))
        b = self.write("b.json", report("bench_qps_recall",
                                        {"must/beam64/qps": 6000.0}))
        code, text = self.run_compare(a, b)
        self.assertEqual(code, 0)
        self.assertIn("no ratio baselines", text)

    def test_repo_baselines_file_parses(self):
        # The committed baselines must stay valid JSON with min/max bounds.
        repo_baselines = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "bench",
            "baselines.json")
        with open(repo_baselines, encoding="utf-8") as f:
            data = json.load(f)
        for bench, entry in data.items():
            if bench.startswith("_"):
                continue
            self.assertIn("metrics", entry)
            for name, bounds in entry["metrics"].items():
                self.assertTrue(
                    set(bounds) <= {"min", "max", "skip_if_config_below"},
                    f"{bench}:{name} has unknown bound keys {set(bounds)}")
                for key, floor in bounds.get(
                        "skip_if_config_below", {}).items():
                    self.assertIsInstance(
                        floor, (int, float),
                        f"{bench}:{name} config floor {key} is not a number")
            ratios = entry.get("ratios")
            if ratios is not None:
                self.assertTrue(
                    set(ratios) <= {"skip_if_equal_config", "metrics",
                                    "_comment"},
                    f"{bench} ratios has unknown keys {set(ratios)}")
                for name, bounds in ratios.get("metrics", {}).items():
                    self.assertEqual(
                        set(bounds), {"min_speedup"},
                        f"{bench} ratio {name} must set min_speedup only")


if __name__ == "__main__":
    unittest.main()
