"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout:  python3 perfbench/selftest.py

They cover the self-time arithmetic, restoring the wrapped functions,
that tracing leaves the CSV body unchanged, that the seed reaches
run_experiment, and that the correctness gate counts bad runs.
"""

import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402


def _run_csv(overrides, experiment, tmp, name, tracer=None):
    from oiasim import harness
    cfg = harness.make_config(experiment, dict(
        overrides, output_path=os.path.join(tmp, name)))
    if tracer is not None:
        tracer.install()
    try:
        harness.run_experiment(cfg)
    finally:
        if tracer is not None:
            tracer.restore()
    return child.csv_body_digest(cfg.output_path)


class SelfTime(unittest.TestCase):
    def test_synthetic_spans(self):
        # parent [0, 10]; children [1, 3] and [2, 4] overlap (cover 3),
        # [8, 12] is clipped at the parent's end (covers 2); grandchild
        # [1.5, 2.5] counts against its own parent only
        spans = [["p", 0.0, 10.0, -1, 0], ["a", 1.0, 3.0, 0, 0],
                 ["b", 2.0, 4.0, 0, 0], ["c", 8.0, 12.0, 0, 0],
                 ["g", 1.5, 2.5, 1, 0]]
        self.assertEqual(layertrace.self_times(spans), [5.0, 1.0, 2.0, 4.0, 1.0])

    def test_nested_wrapped_calls(self):
        tracer = layertrace.Tracer()

        def inner():
            time.sleep(0.01)

        traced_inner = tracer.wrap(inner, "x.inner")

        def outer(a, b, trial):
            time.sleep(0.01)
            traced_inner()
            traced_inner()

        tracer.wrap(outer, "x.outer", trial_arg=2)(None, None, 7)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["x.outer", "x.inner", "x.inner"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual([s[4] for s in tracer.spans], [7, 7, 7])
        own = layertrace.self_times(tracer.spans)
        outer_span = tracer.spans[0]
        self.assertAlmostEqual(sum(own), outer_span[2] - outer_span[1], places=9)
        self.assertGreaterEqual(own[0], 0.009)
        self.assertLess(own[0], outer_span[2] - outer_span[1] - 0.018)

    def test_errors_counted_and_reraised(self):
        tracer = layertrace.Tracer()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.wrap(boom, "x.boom")()
        self.assertEqual(tracer.errors, {"x.boom": 1})
        self.assertGreater(tracer.spans[0][2], 0.0)


class Restore(unittest.TestCase):
    def test_wrappers_restore_originals(self):
        import importlib
        originals = [(m, a, getattr(importlib.import_module(m), a))
                     for m, a, _ in layertrace.TARGETS]
        from oiasim import harness
        base_pool = harness.ProcessPoolExecutor
        tracer, pool = layertrace.Tracer(), layertrace.PoolCounter()
        pool.install()
        tracer.install()
        changed = [getattr(importlib.import_module(m), a) is not f
                   for m, a, f in originals]
        self.assertTrue(all(changed))
        self.assertIsNot(harness.ProcessPoolExecutor, base_pool)
        tracer.restore()
        pool.restore()
        for m, a, f in originals:
            self.assertIs(getattr(importlib.import_module(m), a), f, f"{m}.{a}")
        self.assertIs(harness.ProcessPoolExecutor, base_pool)


class Digests(unittest.TestCase):
    def test_tracing_leaves_digest_unchanged(self):
        cases = (("fig5_sumrate_d2", {"trials": 3, "snr_db_grid": "10,20"}),
                 ("fig6_oia_vs_ia", {"trials": 3, "snr_db_grid": "20"}),
                 ("fig2_sumrate_d1", {"trials": 3, "snr_db_grid": "10,20"}))
        with tempfile.TemporaryDirectory() as tmp:
            for experiment, overrides in cases:
                plain = _run_csv(overrides, experiment, tmp, "plain.csv")
                tracer = layertrace.Tracer()
                traced = _run_csv(overrides, experiment, tmp, "traced.csv", tracer)
                self.assertEqual(plain, traced, experiment)
                self.assertGreater(len(tracer.spans), 0)

    def test_seed_reaches_run_experiment(self):
        digests = {}
        with tempfile.TemporaryDirectory() as tmp:
            for seed in (5, 6, 5):
                bench = run.Bench("fig5_d2", seed, tmp, time.monotonic() + 120)
                bench.spec = dict(bench.spec,
                                  overrides={"trials": 2, "snr_db_grid": "10"})
                result = bench.run("plain")
                self.assertIsNotNone(result, bench.failures)
                digests.setdefault(seed, set()).add(result["digest"])
        self.assertEqual(len(digests[5]), 1)
        self.assertNotEqual(digests[5], digests[6])


class Declared(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        import json
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            declared = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]},
                         layertrace.LAYER_METRICS)
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(run.WORKLOADS))


class Scaling(unittest.TestCase):
    def test_host_slowdown_cancels(self):
        # a run on a host twice as slow takes twice as long for the run and
        # for the reference work alike; the scaled metrics do not move
        fast = dict(trial_points=100, wall_s=1.0, ref_s=dict(run.REFERENCE_S),
                    setup_s=0.5, peak_rss_mb=80.0)
        slow = dict(fast, wall_s=2.0, setup_s=1.0,
                    ref_s={k: 2 * v for k, v in run.REFERENCE_S.items()})

        class FakeBench:
            runs = iter([fast, slow, slow])

            def run(self, mode):
                return next(self.runs)

        metrics, unscaled, samples = run.measure(FakeBench(), 0.0)
        self.assertEqual(samples, run.MIN_RUNS)
        self.assertAlmostEqual(metrics["trials_per_s"], 100.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.5)
        self.assertAlmostEqual(unscaled["unscaled trials_per_s"], 50.0)


class Gate(unittest.TestCase):
    def test_digest_mismatch_counts_as_failure(self):
        bench = run.Bench("fig5_d2", 1, "", 0.0)
        bench.digests = [("a", "x"), ("b", "x"), ("c", "y")]
        bench.check_digests(None)
        self.assertEqual(len(bench.failures), 1)
        bench.failures = []
        bench.check_digests("y")
        self.assertEqual(len(bench.failures), 2)

    def test_sanity_problems(self):
        from oiasim import ResultRow, make_config
        cfg = make_config("fig5_sumrate_d2", {"trials": 4, "snr_db_grid": "10"})

        def row(K, **kw):
            base = dict(experiment=cfg.experiment, snr_db=10.0, K=K,
                        scheme="oia_1bit", mean_sum_rate=1.0, stderr=0.1,
                        outage_rate=0.0, mean_eligible=1.0,
                        threshold_used=0.5, trials=4)
            return ResultRow(**{**base, **kw})

        good = [row(10), row(50), row(100)]
        self.assertEqual(child.sanity_problems(good, cfg, ["oia_1bit"], 3), [])
        bad = [row(10, mean_sum_rate=float("inf")), row(50, trials=3)]
        problems = child.sanity_problems(bad, cfg, ["oia_1bit"], 3)
        self.assertEqual(len(problems), 3, problems)


if __name__ == "__main__":
    unittest.main()
