"""Self-tests of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the correctness gate rejects planted wrong values fed straight to it,
and the references, self-time arithmetic and compare verdicts.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import harness  # noqa: E402
import numpy as np  # noqa: E402
import probes  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import CliLargeCsv, McNullJobs2  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)

SEED = 5
PROG = harness.Program(ROOT)


def tiny_workloads():
    return [McNullJobs2(n=20, reps=30), CliLargeCsv(rows=3000, lorenz_rows=300)]


TINY_PROBES = probes.Sizes(kernels={"1e5": (500, 1), "1e6": (1000, 1)},
                           pool=McNullJobs2(n=20, reps=30),
                           cli=CliLargeCsv(rows=3000, lorenz_rows=300), gcurve_n=500)


class WorkDir(unittest.TestCase):
    def setUp(self):
        base = os.path.join(ROOT, ".bench_work")
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=base)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def one_pass(self, wl):
        state = wl.setup(SEED, self.dir)
        return state, wl.run(PROG, state)


class MetricsEmitted(WorkDir):
    def test_end_to_end_metrics_with_units(self):
        expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
        for wl in tiny_workloads():
            with self.subTest(workload=wl.name):
                metrics, outcome, _ = harness.measure(PROG, wl, SEED, 0.05, self.dir)
                self.assertEqual({k: u for k, (_, u) in metrics.items()}, expected)
                self.assertTrue(all(v > 0 for v, _ in metrics.values()), metrics)
                self.assertEqual(outcome.failed, 0, outcome.messages)
                self.assertGreater(outcome.attempted, 0)

    def test_per_layer_metrics_with_units(self):
        expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
        for wl in tiny_workloads():
            with self.subTest(workload=wl.name):
                metrics, outcome, _ = harness.traced(PROG, wl, SEED, 0.05, self.dir,
                                                     TINY_PROBES)
                self.assertEqual({k: u for k, (_, u) in metrics.items()}, expected)
                self.assertEqual(outcome.failed, 0, outcome.messages)
                shares = sum(metrics[f"{layer}.self_frac"][0] for layer in spans.LAYERS)
                self.assertAlmostEqual(shares + metrics["trace.unaccounted_frac"][0], 1.0)
                self.assertEqual(metrics["experiments.serial_parallel_equal"][0], 1)


class GateRejectsPlantedValues(WorkDir):
    def assert_gate(self, wl, state, outputs, op):
        bad = wl.check(PROG, state, outputs)
        self.assertIn(op, [k for k, _ in bad], bad)

    def test_null(self):
        wl = McNullJobs2(n=20, reps=30)
        state, out = self.one_pass(wl)
        self.assertEqual(wl.check(PROG, state, out), [])
        planted = [out[0], dataclasses.replace(out[1], cs_ave=5 * out[1].cs_se)]
        self.assert_gate(wl, state, planted, 1)
        planted = [dataclasses.replace(out[0], degenerate_count=1), out[1]]
        self.assert_gate(wl, state, planted, 0)

    def test_gcurve(self):
        n = 500
        out = PROG.experiments.run_gcurve(n=n, base_seed=SEED)
        self.assertEqual(probes.gcurve_check(PROG, SEED, n, out), [])
        points = list(out)
        points[3] = dataclasses.replace(points[3], cs=points[3].cs + 1e-7)
        self.assertTrue(probes.gcurve_check(PROG, SEED, n, points))
        points = list(out)
        points[3], points[4] = (dataclasses.replace(points[3], cs=points[4].cs),
                                dataclasses.replace(points[4], cs=points[3].cs))
        self.assertTrue(any("increasing" in m
                            for m in probes.gcurve_check(PROG, SEED, n, points)))

    def test_cli(self):
        wl = CliLargeCsv(rows=3000, lorenz_rows=300)
        state, out = self.one_pass(wl)
        self.assertEqual(len(out), 4)
        self.assertEqual(wl.check(PROG, state, out), [])
        (code, text), lorenz, *others = out
        payload = json.loads(text)
        payload["rows"][0]["cs"] += 1e-6
        self.assert_gate(wl, state, [(code, json.dumps(payload)), lorenz, *others], 0)
        self.assert_gate(wl, state, [(code, "not json"), lorenz, *others], 0)
        self.assert_gate(wl, state, [(1, text), lorenz, *others], 0)
        l_code, l_out, tsv, svg = lorenz
        lines = tsv.splitlines()
        i, p, q, d, w = lines[151].split("\t")
        lines[151] = "\t".join([i, p, repr(float(q) + 1e-6), d, w])
        bad = ref.check_lorenz_tsv("\n".join(lines) + "\n", state["lx"], [150])
        self.assertTrue(bad)
        self.assert_gate(wl, state, [out[0], (l_code, l_out, tsv, svg[:-7]), *others], 1)
        self.assert_gate(wl, state, [*out[:3], (l_code, l_out, tsv, svg[:-7])], 3)

    def test_runner_counts_every_failing_pass(self):
        class Wrong(McNullJobs2):
            def run(self, api, state, tracer=None):
                out = super().run(api, state, tracer)
                return [dataclasses.replace(out[0], cs_ave=out[0].cs_ave + 1e-6), *out[1:]]

        wl = Wrong(n=20, reps=30)
        state = wl.setup(SEED, self.dir)
        runner = harness.Runner(PROG, wl, state)
        runner.run_pass()
        runner.gate()
        runner.passes(0.05)
        o = runner.outcome
        self.assertEqual(o.failed, o.attempted // wl.ops)

    def test_runner_counts_nondeterministic_output(self):
        class Drifting(McNullJobs2):
            calls = 0

            def run(self, api, state, tracer=None):
                out = super().run(api, state, tracer)
                Drifting.calls += 1
                if Drifting.calls > 1:
                    out[1] = dataclasses.replace(out[1], b1_se=out[1].b1_se * 2)
                return out

        wl = Drifting(n=20, reps=30)
        runner = harness.Runner(PROG, wl, wl.setup(SEED, self.dir))
        runner.run_pass()
        runner.gate()
        runner.passes(0.05)
        self.assertEqual(runner.outcome.failed, runner.outcome.attempted // wl.ops - 1)


class References(unittest.TestCase):
    def test_hand_values(self):
        self.assertEqual(ref.cs_exact([1.0, 1.0, 4.0]), Fraction(1, 3))
        self.assertEqual(ref.cs_exact([1.0, 1.0, 1e6]), Fraction(1, 3))
        self.assertEqual(ref.cs_exact([-2.0, -1.0, 1.0, 2.0]), 0)
        self.assertEqual(ref.cs_exact([3.0, 3.0, 3.0]), 0)
        self.assertEqual(ref.cs_exact([1.0, 2.0]), 0)
        self.assertEqual(ref.cs_fsum([1.0, 1.0, 4.0]), 1 / 3)

    def test_closed_form_matches_exact(self):
        rng = np.random.default_rng(7)
        for n in (3, 10, 101):
            for x in (rng.lognormal(0, 2, n), rng.standard_cauchy(n), rng.normal(1e6, 1, n)):
                self.assertAlmostEqual(ref.cs_fsum(x), float(ref.cs_exact(x)), delta=1e-12)
                self.assertLessEqual(abs(float(ref.cs_exact(x))), ref.cs_bound(n))

    def test_gini_of_hand_sample(self):
        # [1, 1, 4]: raw gaps 1/3 - 1/6 and 2/3 - 2/6, Gini = 2 * (1/2) / 3
        self.assertAlmostEqual(ref.gini_fsum(np.array([1.0, 1.0, 4.0])), 1 / 3)


_TRACER = None


def _idle_then_busy(seconds: float) -> None:
    time.sleep(seconds)
    with _TRACER.span("core.busy", "core"):
        time.sleep(seconds / 4)


class SelfTimes(WorkDir):
    def test_overlapping_children(self):
        s = spans.Span
        tree = [s(1, None, "root", "bench", None, 0, 100, "p"),
                s(2, 1, "a", "core", None, 10, 40, "p"),
                s(3, 1, "b", "core", None, 30, 60, "p"),    # overlaps a (worker)
                s(4, 2, "c", "io", None, 20, 25, "p")]
        self.assertEqual(spans.self_times(tree), {1: 50, 2: 25, 3: 30, 4: 5})

    def test_worker_time_outside_spans_is_unaccounted(self):
        global _TRACER
        _TRACER = tracer = spans.Tracer(self.dir)
        tracer.pass_id = "p"
        with tracer.span("bench.pass", "bench"), \
                tracer.span("experiments.run", "experiments"), \
                ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            list(pool.map(_idle_then_busy, [0.4, 0.4]))
        tracer.collect_dumps()
        recorded = tracer.finished()
        self.assertEqual(sum(s.name == "bench.process" for s in recorded), 2)
        shares = spans.layer_shares(recorded)
        # each worker idles 0.4 s outside any span and spends 0.1 s in core
        self.assertGreater(shares["bench"], 0.5, shares)
        self.assertGreater(shares["core"], 0.1, shares)
        self.assertAlmostEqual(sum(shares.values()), 1.0)

    def test_tail_percentile(self):
        self.assertEqual(spans.tail_percentile(10_000), 99.9)
        self.assertEqual(spans.tail_percentile(1000), 99.0)
        self.assertEqual(spans.tail_percentile(100), 90.0)
        self.assertEqual(spans.tail_percentile(5), 100.0)


class Compare(WorkDir):
    def test_verdicts(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        self.assertEqual(compare.verdict(base, [1.3, 1.31, 1.29], 0.1, "lower"), "regression")
        self.assertEqual(compare.verdict(base, [1.01, 1.0, 1.02], 0.1, "lower"), "same")
        self.assertEqual(compare.verdict(base, [0.5, 1.0, 1.6, 1.0], 0.1, "lower"), "unresolved")
        self.assertEqual(compare.verdict(base, [0.7, 0.71, 0.72], 0.1, "higher"), "regression")
        self.assertEqual(compare.verdict(base, [0.7, 0.71, 0.72], 0.1, "lower"), "better")

    def test_different_run_lengths_are_not_compared(self):
        def record(seconds):
            return json.dumps({"provenance": {"workload": "w", "seconds": seconds,
                                              "traced": False},
                               "result": {"metrics": {"wall_s": {"value": 1.0,
                                                                 "unit": "s"}}}}) + "\n"
        paths = [os.path.join(self.dir, "a.jsonl"), os.path.join(self.dir, "b.jsonl")]
        for path, seconds in zip(paths, (45, 30)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(record(seconds))
        self.assertEqual(compare.main(*paths, CONFIG), 1)


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        base = os.path.join(ROOT, ".bench_work")
        os.makedirs(base, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=base)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                                   "mc-null-jobs2", "--seed", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_refuses_another_run_length(self):
        seconds = CONFIG["run_seconds"] + 1
        self.assertEqual(run.main(["--workload", "mc-null-jobs2", "--seconds",
                                   str(seconds)]), 2)


if __name__ == "__main__":
    unittest.main()
