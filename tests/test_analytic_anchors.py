"""Analytic anchors: experiment outputs checked against exact laws.

They hold on any numpy/scipy version, where the pinned CSV digests skip.
Each check is a z-bound with a Bonferroni correction over the rows it
covers, at the held-out seed below, which was written here before the
first run and is never re-picked to make a check pass.

- d = 1 selection law: the metric is Uniform(0, 1), i.i.d. over users, so
  a cell's eligible count under threshold x is Binomial(K, x) and its
  outage probability is (1 - x)^K.
- d = 2 selection law: the metric has the exact CDF F(x) = x^4 / 2 on
  [0, 1], so below x = 1 a cell's eligible count is Binomial(K, x^4 / 2)
  and its outage probability is (1 - x^4 / 2)^K.
- d = 1 selected metric: the mean metric of the user that the 1-bit
  selection serves is expected_metric_one_bit(x, K), which at the optimal
  threshold is min_expected_metric_d1(K).
- IA mean: u and v depend only on the cross links, so u^H H_ii v is
  CN(0, 1) and the mean sum rate of closed-form IA is
  3 e^{1/P} E1(1/P) / ln 2.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1
from scipy.stats import norm

from oiasim import (cell_metrics, expected_metric_one_bit,
                    generate_channels, harness, make_config, min_expected_metric_d1,
                    optimal_threshold_d1, run_experiment, select_one_bit,
                    threshold_numeric)

SEED = 80516
SNR_DB = "0,10,20"
TRIALS = 2000
# family-wise false-alarm probability of each check
ALPHA = 1e-3


def _z_bound(rows):
    """Two-sided Bonferroni z-bound over rows."""
    return norm.isf(ALPHA / (2 * rows))


def _selection_law_misses(rows, report_prob=optimal_threshold_d1):
    """The (row, statistic, z) triples of rows whose mean eligible count or
    outage rate lies outside the binomial selection law's z-bound, where a
    user reports '1' with probability report_prob(K) at the optimal
    threshold for the row's K (the d = 1 law by default)."""
    z = _z_bound(2 * len(rows))
    misses = []
    for row in rows:
        cells = 3 * row.trials
        F = report_prob(row.K)
        p0 = (1.0 - F) ** row.K
        for name, value, mean, var in (
                ("mean_eligible", row.mean_eligible, row.K * F, row.K * F * (1 - F)),
                ("outage_rate", row.outage_rate, p0, p0 * (1 - p0))):
            score = (value - mean) / math.sqrt(var / cells)
            if abs(score) > z:
                misses.append((row, name, score))
    return misses


def _d2_threshold(K):
    """The optimal design at d = 2, the one fig5 runs."""
    return threshold_numeric(K, 2)


def _d2_report_prob(K):
    """F(x) = x^4 / 2 at the d = 2 design, exact for x <= 1."""
    return _d2_threshold(K) ** 4 / 2


def _run(tmp_path, experiment, snr_db=SNR_DB):
    cfg = make_config(experiment, {"snr_db_grid": snr_db, "trials": TRIALS,
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


def test_fig5_follows_the_d2_selection_law(tmp_path):
    rows = _run(tmp_path, "fig5_sumrate_d2", "20")
    assert [(row.snr_db, row.K) for row in rows] == [(20.0, 10), (20.0, 50), (20.0, 100)]
    # every threshold lies below 1, where x^4 / 2 is the metric's exact CDF
    assert all(row.threshold_used == _d2_threshold(row.K) < 1.0 for row in rows)
    assert _selection_law_misses(rows, _d2_report_prob) == []


def test_d2_selection_law_check_fails_on_a_threshold_planted_high(tmp_path, monkeypatch):
    design = harness.design_threshold
    monkeypatch.setattr(harness, "design_threshold",
                        lambda method, K, d: 1.1 * design(method, K, d))
    rows = _run(tmp_path, "fig5_sumrate_d2", "20")
    assert _selection_law_misses(rows, _d2_report_prob)


def _selected_metric_z(x, law, K=10, drops=5000):
    """z-score, against law, of the mean metric of the users that
    select_one_bit serves at threshold x in the three cells of d = 1 drops
    of K users. The drops are drawn as one drop of drops * K users per cell,
    which has the same law: every user's metric depends on its own links."""
    rng = np.random.default_rng(SEED)
    rows = cell_metrics(generate_channels(rng, 1, drops * K)).reshape(1, 3 * drops, K)
    selected, _ = select_one_bit(rows, (K,), (x,), (rng,))
    picked = np.take_along_axis(rows[0], selected[0, 0, :, None], axis=-1)
    return (picked.mean() - law) / (picked.std(ddof=1) / math.sqrt(picked.size))


def test_one_bit_selection_follows_the_d1_selected_metric_law():
    K = 10
    z = _z_bound(2)
    assert abs(_selected_metric_z(optimal_threshold_d1(K),
                                  min_expected_metric_d1(K))) <= z
    assert abs(_selected_metric_z(0.5, expected_metric_one_bit(
        0.5, K, 1))) <= z


def test_selected_metric_check_fails_on_a_threshold_planted_high():
    law = expected_metric_one_bit(0.5, 10, 1)
    assert abs(_selected_metric_z(0.55, law)) > _z_bound(2)


def test_fig2_ia_mean_matches_the_exact_law(tmp_path):
    rows = [row for row in _run(tmp_path, "fig2_sumrate_d1")
            if row.scheme == "ia_closed_form"]
    assert [row.snr_db for row in rows] == [0.0, 10.0, 20.0]
    z = _z_bound(len(rows))
    for row in rows:
        s = 10.0 ** (-row.snr_db / 10.0)    # 1 / P
        exact = 3.0 * math.exp(s) * exp1(s) / math.log(2.0)
        assert abs(row.mean_sum_rate - exact) <= z * row.stderr, (row, exact)
