"""Self-tests of the benchmark harness.

Run from the repository root with::

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from layers import SHOULD_MOVE  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Contract(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_and_layer_targets_match_the_declaration(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"] for m in self.spec["per_layer"]}, set(SHOULD_MOVE))


class Inputs(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for workload in WORKLOADS:
            first = run.digest(generate(workload, 0x5C1))
            self.assertEqual(first, run.digest(generate(workload, 0x5C1)))
            self.assertNotEqual(first, run.digest(generate(workload, 0x5C2)))

    def test_every_pass_has_at_least_100_tasks(self):
        for workload in WORKLOADS:
            for seed in (0x5C1, run.HELD_OUT_SEED, 7):
                self.assertGreaterEqual(len(generate(workload, seed)["tasks"]), 100, workload)


class Gate(unittest.TestCase):
    def test_planted_wrong_answer_raises_fail_ratio(self):
        import raagkit

        def wrong_normal_form(word):
            nf = raagkit.normal_form(word)
            return nf if len(nf) < 20 else raagkit.reduce(word)  # not lex-least

        def wrong_equal(u, v):
            return len(u) > 100 or raagkit.equal(u, v)  # a wrong fast path for long words

        for name, fn in (("words.normal_form", wrong_normal_form), ("words.equal", wrong_equal)):
            with self.subTest(name):
                record = run.run_workload("word-problem", 0x5C1, 0.0, trace=False, min_passes=2,
                                          overrides={name: fn})
                self.assertGreater(record["failed"], 0)
                self.assertLess(record["failed"], record["attempted"])
                self.assertEqual(record["attempted"], 2 * record["tasks"])
                self.assertEqual(set(record["metrics"]), set(run.units("end_to_end")))

    def test_raising_operation_is_counted_not_fatal(self):
        def broken_median(x, y, z):
            raise ValueError("planted")

        record = run.run_workload("cube-geometry", 0x5C1, 0.0, trace=False, min_passes=1,
                                  overrides={"cube.median": broken_median})
        medians = sum(1 for kind, _ in generate("cube-geometry", 0x5C1)["tasks"]
                      if kind == "median")
        self.assertEqual(record["failed"], medians)

    def test_traced_run_reports_every_layer_metric(self):
        record = run.run_workload("word-problem", 0x5C1, 0.0, trace=True, min_passes=3)
        self.assertEqual(set(record["metrics"]), set(run.units("per_layer")))
        self.assertEqual(record["failed"], 0)
        self.assertGreater(record["metrics"]["words.normal_form.busy_s"], 0)


class Speed(unittest.TestCase):
    def test_scale_drops_probes_and_divides_by_kernel_speed(self):
        from speed import REFERENCE_S, Speedometer

        meter = Speedometer()
        # probes at 0, 1 and 2 s, each taking twice the reference time
        meter.starts = [0.0, 1.0, 2.0]
        meter.ends = [t + 2 * REFERENCE_S for t in meter.starts]
        inside, between = meter.scale([(0.5, 1.5), (1.3, 1.4)])
        self.assertAlmostEqual(inside, (1.0 - 2 * REFERENCE_S) / 2)
        self.assertAlmostEqual(between, 0.1 / 2)


if __name__ == "__main__":
    unittest.main()
