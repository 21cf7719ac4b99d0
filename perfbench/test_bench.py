"""Tests of the benchmark's own code.

    python3 perfbench/test_bench.py

The oracle test needs the benchmark's helpers built
(`dune build perfbench/tool/benchgen.exe` at the repository root) and is
skipped otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_ten_samples_beyond(self):
        self.assertTrue(stats.supported(100, 90))
        self.assertFalse(stats.supported(99, 90))
        self.assertTrue(stats.supported(1000, 99))
        self.assertFalse(stats.supported(999, 99))
        self.assertEqual(stats.beyond(1000, 99), 10)

    def test_decimal_percentiles(self):
        self.assertEqual(stats.beyond(10000, 99.9), 10)
        self.assertTrue(stats.supported(10000, 99.9))
        self.assertFalse(stats.supported(9999, 99.9))

    def test_empty_sample_refused(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class Accounting(unittest.TestCase):
    def test_in_limit_and_failed_share(self):
        samples = [
            (0.010, stats.OK),  # in limit
            (0.030, stats.OK),  # right but too slow
            (0.001, stats.INCONCLUSIVE),  # misses, not failed
            (0.001, stats.WRONG),
            (0.001, stats.ERROR),
            (float("inf"), stats.TRANSPORT),
            (0.001, stats.REJECTED),
            (0.020, stats.OK),  # exactly at the limit
        ]
        acc = stats.account(samples, 0.020)
        self.assertEqual(acc.attempted, 8)
        self.assertEqual(acc.failed, 4)
        self.assertEqual(acc.wrong, 1)
        self.assertAlmostEqual(acc.in_limit_share, 2 / 8)
        self.assertAlmostEqual(acc.failed_share, 4 / 8)

    def test_nothing_attempted(self):
        self.assertEqual(stats.account([], 1.0).attempted, 0)


class WrongVerdicts(unittest.TestCase):
    def test_classify(self):
        self.assertEqual(stats.classify("holds", "holds", None), stats.OK)
        self.assertEqual(stats.classify("violated", "violated", True), stats.OK)
        self.assertEqual(stats.classify("holds", "violated", None), stats.WRONG)
        self.assertEqual(stats.classify("violated", "holds", True), stats.WRONG)
        # A violation without a certified witness is not a right answer.
        self.assertEqual(stats.classify("violated", "violated", None), stats.WRONG)
        self.assertEqual(stats.classify("violated", "violated", False), stats.WRONG)
        self.assertEqual(stats.classify("inconclusive", "holds", None),
                         stats.INCONCLUSIVE)

    def fixture(self):
        doc = {
            "nets": [{"id": "n", "text": "net"}],
            "questions": [
                {"id": "q0", "net": "n", "cover": [], "engine": "gpo",
                 "reduce": False, "expect": "violated"},
                {"id": "q1", "net": "n", "cover": ["a", "b"], "engine": "gpo",
                 "reduce": False, "expect": "holds"},
            ],
        }
        return run.Inputs(doc)

    def test_served_wrong_verdict_is_caught(self):
        inputs = self.fixture()
        response = {"ok": True, "results": [
            {"id": "q0", "status": "ok", "certified": True,
             "report": {"deadlock": True, "truncated": False}},
            {"id": "q1", "status": "ok", "certified": True,
             "report": {"deadlock": True, "truncated": False}},
        ]}
        tally = run.Tally()
        tally.record(["q0", "q1"], run.read_results(["q0", "q1"], response), 0.001)
        expect = {q: inputs.questions[q]["expect"] for q in inputs.questions}
        acc = stats.account(tally.outcomes(expect), 1.0)
        self.assertEqual((acc.attempted, acc.wrong, acc.failed), (2, 1, 1))
        self.assertEqual(len(tally.wrong(inputs, expect)), 1)
        self.assertIn("q1", tally.wrong(inputs, expect)[0])

    def test_rejection_and_failure_count_as_failed(self):
        rejected = run.read_results(["q0"], {"ok": False, "reject": {}})
        failed = run.read_results(["q0"], {"ok": True, "results": [
            {"id": "q0", "status": {"failed": "boom"}, "report": None}]})
        self.assertEqual(rejected[0][1], stats.REJECTED)
        self.assertEqual(failed[0][1], stats.ERROR)

    def test_cold_exit_codes(self):
        inputs = self.fixture()
        self.assertEqual(run.cold_verdict(inputs, "q0", 1, ""),
                         ("verdict", "violated", True))
        # julie safety exits 1 on a violation even when the replay check
        # failed; only the printed certified scenario counts.
        self.assertEqual(run.cold_verdict(inputs, "q1", 1, "VIOLATED"),
                         ("verdict", "violated", False))
        self.assertEqual(
            run.cold_verdict(inputs, "q1", 1, "scenario (certified): t"),
            ("verdict", "violated", True))
        # julie certify exits 2 when a claimed violation fails
        # certification: that is a wrong verdict, whatever was expected.
        failed_cert = run.cold_verdict(inputs, "q0", 2, "CERTIFICATION FAILED")
        self.assertEqual(failed_cert, ("verdict", "violated", False))
        for expected in ("holds", "violated"):
            self.assertEqual(stats.classify(failed_cert[1], expected, failed_cert[2]),
                             stats.WRONG)
        self.assertEqual(run.cold_verdict(inputs, "q0", 2, "inconclusive: budget"),
                         ("verdict", "inconclusive", None))


class Ledger(unittest.TestCase):
    def test_residual_of_the_wrong_sign_is_flagged(self):
        rows = [("transport", -0.07, 1), ("tracing overhead", 0.01, -1),
                ("scheduler at pool 2", -0.30, 0), ("cli", 0.20, 1)]
        faults = run.ledger_faults(rows, 1.0)
        self.assertEqual(len(faults), 1)
        self.assertIn("transport", faults[0])
        self.assertEqual(run.ledger_faults(rows[1:], 1.0), [])

    def test_trace_overhead_share_ignores_a_swinging_request(self):
        traced = [1.1, 2.2, 3.3, 4.4, 0.5]
        untraced = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(run.trace_overhead_share(traced, untraced), 0.1)


@unittest.skipUnless(os.path.exists(os.path.join(ROOT, run.BENCHGEN)),
                     "benchgen not built")
class Oracle(unittest.TestCase):
    NET = "pl a (1)\npl b\npl c\ntr t : a -> b\ntr u : b -> c\n"

    def ask(self, checks):
        with tempfile.TemporaryDirectory() as d:
            inp, out = os.path.join(d, "in.json"), os.path.join(d, "out.json")
            with open(inp, "w") as f:
                json.dump(checks, f)
            r = subprocess.run([os.path.join(ROOT, run.BENCHGEN), "oracle", inp, out],
                               capture_output=True)
            self.assertEqual(r.returncode, 0, r.stderr)
            with open(out) as f:
                return json.load(f)

    def test_deadlock_and_cover(self):
        got = self.ask([
            {"key": "dl", "text": self.NET, "cover": []},
            {"key": "never", "text": self.NET, "cover": ["a", "c"]},
            {"key": "reach", "text": self.NET, "cover": ["c"]},
        ])
        self.assertEqual(got, {"dl": "violated", "never": "holds", "reach": "violated"})

    def test_fresh_nets_outlast_the_stock(self):
        # A run that spends serve-hot's stock of fresh nets draws more
        # instead of stopping.
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with tempfile.TemporaryDirectory() as d:
                inputs = run.Inputs(run.generate("serve-hot", 7, d), d)
                inputs.doc["fresh"] = inputs.doc["fresh"][:2]
                stream = run.hot_stream(inputs, 7)
                asked = [next(stream)[0] for _ in range(400)]
        finally:
            os.chdir(cwd)
        pool = set(inputs.doc["pool"])
        fresh = [q for q in asked if q not in pool]
        self.assertGreater(len(fresh), 2)
        self.assertEqual(inputs.chunks, 1)
        self.assertEqual(len(fresh), len(set(fresh)))
        for qid in fresh:
            self.assertIn(inputs.questions[qid]["net"], inputs.texts)


class DaemonDeath(unittest.TestCase):
    def test_a_dead_daemon_stops_the_run_with_its_cause(self):
        d = run.Daemon.__new__(run.Daemon)
        d.proc = types.SimpleNamespace(poll=lambda: None)
        d.check()
        d.proc = types.SimpleNamespace(poll=lambda: -11)
        with self.assertRaisesRegex(run.BenchError, "signal 11"):
            d.check()


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for key, decl in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = [(m["name"], m["unit"]) for m in bench[key]]
            self.assertEqual(declared, decl)
            printed = run.metrics_json(decl, {name: 1.0 for name, _ in decl})
            self.assertEqual(list(printed), [name for name, _ in declared])
            self.assertEqual([v["unit"] for v in printed.values()],
                             [unit for _, unit in declared])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))

    def test_missing_metric_refused(self):
        with self.assertRaises(run.BenchError):
            run.metrics_json(run.END_TO_END, {"setup_s": 1.0})


if __name__ == "__main__":
    unittest.main()
