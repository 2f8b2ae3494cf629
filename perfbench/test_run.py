#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny scale. Run from the repository root:

    python3 perfbench/test_run.py

They build `rjbench`, so the first run takes as long as a build.
"""

import argparse
import copy
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ROOT = run.BENCH_DIR.parent


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("rjbench does not build here")
        base = Path.cwd() / ".bench_work"
        base.mkdir(exist_ok=True)
        cls.scratch = Path(tempfile.mkdtemp(prefix="test-", dir=base))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)
        try:
            cls.scratch.parent.rmdir()
        except OSError:
            pass  # a benchmark run's scratch is still there

    def measure(self, seed=42, trace=0, pins=None):
        args = argparse.Namespace(workload="tiny", seed=seed, seconds=0.0, trace=trace)
        work = Path(tempfile.mkdtemp(dir=self.scratch))
        saved = run.load_pins
        if pins is not None:
            run.load_pins = lambda: pins
        try:
            return run.measure(self.binary, args, work)
        finally:
            run.load_pins = saved

    def check_metrics(self, result, units):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertRegex(metric["unit"], UNIT)
            self.assertEqual(metric["unit"], units[name])
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_printed_metric_has_a_valid_name_and_a_unit(self):
        plain = self.measure(trace=0)
        self.assertTrue(plain["correct"], plain)
        self.check_metrics(plain, run.END_TO_END_UNITS)
        traced = self.measure(seed=7, trace=1)
        self.assertTrue(traced["correct"], traced)
        self.check_metrics(traced, run.PER_LAYER_UNITS)
        self.assertGreaterEqual(traced["metrics"]["trace.coverage"]["value"], 0.95)

    def test_metric_lists_match_benchmark_json(self):
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        for section, units in (("end_to_end", run.END_TO_END_UNITS),
                               ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[section]}, units)
        self.assertEqual({w["name"] for w in spec["workloads"]} | {"tiny"}, set(run.WORKLOADS))

    def tampered(self, key, value):
        pins = copy.deepcopy(run.load_pins())
        pins["tiny"]["42"][0][key] = value
        return pins

    def test_pinned_seed_passes(self):
        result = self.measure()
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])

    def test_a_tampered_digest_fails_the_run(self):
        result = self.measure(pins=self.tampered("digest", "00000000"))
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_a_changed_precision_fails_the_run(self):
        result = self.measure(pins=self.tampered("precision", 0.5))
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_a_different_input_fails_every_run(self):
        result = self.measure(pins=self.tampered("rjg_crc32", "00000000"))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_judge_flags_partial_and_degraded_reports(self):
        good = {"complete": True, "failures": 0, "digest": "ab", "precision": 1, "recall": 1}
        expect = {"digest": "ab", "precision": 1, "recall": 1}
        self.assertEqual(run.judge(good, expect), [])
        self.assertTrue(run.judge(dict(good, complete=False), expect))
        self.assertTrue(run.judge(dict(good, failures=1), expect))
        self.assertTrue(run.judge(None, expect))

    def test_same_seed_gives_byte_identical_inputs(self):
        outs = []
        for name in ("a", "b"):
            out = self.scratch / name
            done = subprocess.run([str(self.binary), "gen", "--workload", "tiny", "--seed", "11",
                                   "--out", str(out)], capture_output=True, text=True, check=True)
            outs.append((out, json.loads(done.stdout)))
        (a, gen_a), (b, gen_b) = outs
        self.assertEqual([i["rjg_crc32"] for i in gen_a["instances"]],
                         [i["rjg_crc32"] for i in gen_b["instances"]])
        for path in sorted(a.glob("*.rjg")):
            self.assertEqual(path.read_bytes(), (b / path.name).read_bytes(), path.name)


if __name__ == "__main__":
    unittest.main()
