"""Analytic anchors: experiment outputs checked against exact laws.

They hold on any numpy/scipy version, where the pinned CSV digests skip.
Each check is a z-bound with a Bonferroni correction over the rows it
covers, at the held-out seed below, which was written here before the
first run and is never re-picked to make a check pass.

- d = 1 selection law: the metric is Uniform(0, 1), i.i.d. over users, so
  a cell's eligible count under threshold x is Binomial(K, x) and its
  outage probability is (1 - x)^K.
- IA mean: u and v depend only on the cross links, so u^H H_ii v is
  CN(0, 1) and the mean sum rate of closed-form IA is
  3 e^{1/P} E1(1/P) / ln 2.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1
from scipy.stats import norm

from oiasim import harness, make_config, optimal_threshold_d1, run_experiment

SEED = 80516
SNR_DB = "0,10,20"
TRIALS = 2000
# family-wise false-alarm probability of each check
ALPHA = 1e-3


def _z_bound(rows):
    """Two-sided Bonferroni z-bound over rows."""
    return norm.isf(ALPHA / (2 * rows))


def _selection_law_misses(rows):
    """The (row, statistic, z) triples of fig3 rows whose mean eligible
    count or outage rate lies outside the d = 1 selection law's z-bound,
    at the optimal threshold for the row's K."""
    z = _z_bound(2 * len(rows))
    misses = []
    for row in rows:
        cells = 3 * row.trials
        x = optimal_threshold_d1(row.K)
        p0 = (1.0 - x) ** row.K
        for name, value, mean, var in (
                ("mean_eligible", row.mean_eligible, row.K * x, row.K * x * (1 - x)),
                ("outage_rate", row.outage_rate, p0, p0 * (1 - p0))):
            score = (value - mean) / math.sqrt(var / cells)
            if abs(score) > z:
                misses.append((row, name, score))
    return misses


def _run(tmp_path, experiment):
    cfg = make_config(experiment, {"snr_db_grid": SNR_DB, "trials": TRIALS,
                                   "seed": SEED,
                                   "output_path": str(tmp_path / f"{experiment}.csv")})
    return run_experiment(cfg)


def test_fig3_follows_the_d1_selection_law(tmp_path):
    rows = _run(tmp_path, "fig3_eligible_users")
    assert [(row.snr_db, row.K) for row in rows] == [(0.0, 1), (10.0, 10), (20.0, 100)]
    assert _selection_law_misses(rows) == []


def test_selection_law_check_fails_on_a_threshold_planted_high(tmp_path, monkeypatch):
    design = harness.design_threshold
    monkeypatch.setattr(harness, "design_threshold",
                        lambda method, K, d: 1.1 * design(method, K, d))
    rows = _run(tmp_path, "fig3_eligible_users")
    assert _selection_law_misses(rows)


def test_fig2_ia_mean_matches_the_exact_law(tmp_path):
    rows = [row for row in _run(tmp_path, "fig2_sumrate_d1")
            if row.scheme == "ia_closed_form"]
    assert [row.snr_db for row in rows] == [0.0, 10.0, 20.0]
    z = _z_bound(len(rows))
    for row in rows:
        s = 10.0 ** (-row.snr_db / 10.0)    # 1 / P
        exact = 3.0 * math.exp(s) * exp1(s) / math.log(2.0)
        assert abs(row.mean_sum_rate - exact) <= z * row.stderr, (row, exact)
