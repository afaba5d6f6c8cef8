"""Tests of the benchmark's own logic.

Run from the root of a checkout:  python3 -m unittest discover -s bench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
import types
import unittest
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import jsonschema  # noqa: E402

from gate import check, predicted_std, theory_std_mismatch_rows  # noqa: E402
from run import SCHEMA, import_times  # noqa: E402
from spans import Span, Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, operations, sweep_grid, warmup  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for name in WORKLOADS:
            first = [op.argv for op in islice(operations(name, 7), 4)]
            again = [op.argv for op in islice(operations(name, 7), 4)]
            other = [op.argv for op in islice(operations(name, 8), 4)]
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)
            self.assertEqual(warmup(name, 7), warmup(name, 7))

    def test_cli_parses_the_generated_inputs(self):
        from infoclone.cli import build_parser

        parser = build_parser()
        for name in WORKLOADS:
            for op in islice(operations(name, 3), 20):
                args = parser.parse_args(list(op.argv))
                self.assertEqual(args.alpha, op.alpha)
                self.assertEqual(args.beta, op.beta)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            Span("main", 0.0, 10.0, None),
            Span("a", 1.0, 4.0, 0),
            Span("b", 2.0, 3.0, 1),
            Span("a", 5.0, 7.0, 0),
            Span("c", 6.0, 9.5, 0),  # overlaps the second "a"
        ]
        self.assertEqual(self_times(spans), [10.0 - 7.5, 2.0, 1.0, 2.0, 3.5])
        summary = summarize(spans)
        self.assertEqual(summary["a"], {"calls": 2, "total_s": 5.0, "self_s": 4.0})
        self.assertEqual(summary["main"]["self_s"], 2.5)

    def test_wrapped_calls_nest_and_missing_attributes_count_zero(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        module = types.SimpleNamespace(inner=lambda x: x + 1)
        module.outer = lambda x: module.inner(x) * 2
        self.assertTrue(tracer.wrap(module, "inner", "inner"))
        self.assertTrue(tracer.wrap(module, "outer", "outer"))
        self.assertFalse(tracer.wrap(module, "removed", "removed"))
        self.assertEqual(tracer.call("main", module.outer, 1), 4)
        self.assertEqual([(s.name, s.parent) for s in tracer.spans],
                         [("main", None), ("outer", 0), ("inner", 1)])
        summary = summarize(tracer.spans)
        self.assertNotIn("removed", summary)
        self.assertEqual(summary["outer"], {"calls": 1, "total_s": 3.0, "self_s": 2.0})


class ImportTimeTest(unittest.TestCase):
    def test_import_and_fock_totals(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy.sparse",
            "import time:       200 |        300 |     scipy",
            "import time:        50 |        350 |   infoclone.fock",
            "import time:        10 |       1000 | infoclone",
            "import time:         5 |          5 | infoclone.cli",
            "import time:        40 |         40 | scipy.linalg",
            "import time:        20 |         20 | json",
        ]).encode()
        times = import_times(text)
        self.assertAlmostEqual(times["cli.import_s"], 1005e-6)
        self.assertAlmostEqual(times["cli.import_fock_s"], 390e-6)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from infoclone.cli import main

        cls.op = sweep_grid(random.Random(11), trials=3000)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cls.code = main(list(cls.op.argv))
        cls.stdout = buf.getvalue().encode()
        schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        cls.validator = jsonschema.validators.validator_for(schema)(schema)

    def gate(self, report=None, code=0):
        stdout = self.stdout if report is None else json.dumps(report).encode()
        return check(self.op, code, stdout, self.validator)[0]

    def test_accepts_a_real_report(self):
        self.assertEqual(self.code, 0)
        self.assertEqual(self.gate(), [])

    def test_rejects_a_std_off_by_ten_percent(self):
        report = json.loads(self.stdout)
        report["rows"][0]["std_re"] *= 1.1
        problems = self.gate(report)
        self.assertEqual(len(problems), 1)
        self.assertIn("std_re", problems[0])

    def test_rejects_a_bad_exit_code(self):
        self.assertIn("exit code 1", self.gate(code=1)[0])

    def test_rejects_a_schema_violation(self):
        report = json.loads(self.stdout)
        del report["rows"][0]["theory_std"]
        self.assertTrue(self.gate(report)[0].startswith("schema:"))

    def test_rejects_unparseable_output(self):
        problems = check(self.op, 0, b"{not json", self.validator)[0]
        self.assertIn("not JSON", problems[0])

    def test_counts_theory_std_rows_that_miss_the_odd_n_prediction(self):
        report = json.loads(self.stdout)
        self.assertEqual(theory_std_mismatch_rows(report, self.op), len(self.op.sin_rts))
        fixed = copy.deepcopy(report)
        for row, sin_rt in zip(fixed["rows"], self.op.sin_rts):
            row["theory_std_re"], row["theory_std_im"] = predicted_std(3, sin_rt)
        self.assertEqual(theory_std_mismatch_rows(fixed, self.op), 0)

    def test_even_n_prediction_is_the_papers(self):
        self.assertEqual(predicted_std(100, -1.0), (0.5**0.5, 0.5**0.5))
        re, im = predicted_std(3, -1.0)
        self.assertAlmostEqual(re, 0.6123724356957945)
        self.assertAlmostEqual(im, 0.8660254037844386)


if __name__ == "__main__":
    unittest.main()
