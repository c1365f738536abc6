"""Selection protocols and their analytic performance functionals."""

import numpy as np
import pytest
from scipy.integrate import quad

from oiasim import (ManifoldParams, ShapeMismatch, expected_eligible,
                    expected_metric_one_bit, expected_metric_upper_bound,
                    outage_probability, select_conventional, select_one_bit,
                    select_one_bit_rows)
from oiasim.threshold import optimal_threshold_d1

P21 = ManifoldParams(2, 1)
P42 = ManifoldParams(4, 2)


def test_select_conventional_examples():
    assert select_conventional([0.4, 0.1, 0.9]) == 1
    assert select_conventional([0.3]) == 0
    assert select_conventional([0.2, 0.2, 0.5]) == 0
    with pytest.raises(ShapeMismatch):
        select_conventional([])


def test_select_conventional_exhaustive_oracle():
    rng = np.random.default_rng(30)
    for _ in range(10 ** 4):
        m = rng.random(rng.integers(1, 12))
        assert select_conventional(m) == int(np.argmin(m))
    rows = rng.random((4, 3, 9))
    rows[0, 0, 5] = rows[0, 0, 2] = -1.0
    picks = select_conventional(rows)
    assert picks.shape == (4, 3) and picks[0, 0] == 2
    assert all(picks[t, i] == select_conventional(rows[t, i])
               for t in range(4) for i in range(3))


def test_select_one_bit_single_eligible():
    out = select_one_bit(np.array([0.9, 0.05, 0.8]), 0.1,
                         np.random.default_rng(0))
    assert out == (1, 1)
    assert all(type(v) is int for v in out)


def test_select_one_bit_outage():
    selected, eligible = select_one_bit(np.array([0.9, 0.8]), 0.1,
                                        np.random.default_rng(0))
    assert eligible == 0
    assert selected in (0, 1)


def test_select_one_bit_needs_one_row():
    # a (3, 10) stack flattened into one row could pick user 20 of 10
    rng = np.random.default_rng(0)
    for metrics in (rng.random((3, 10)), rng.random((1, 10)), np.float64(0.5)):
        with pytest.raises(ShapeMismatch):
            select_one_bit(metrics, 0.2, rng)


def _sequential_one_bit(metrics, x, rng):
    """Reference 1-bit selection on one row: (selected, eligible count),
    with one scalar rng.integers call."""
    eligible = np.flatnonzero(metrics < x)
    if eligible.size:
        return int(eligible[rng.integers(eligible.size)]), int(eligible.size)
    return int(rng.integers(metrics.size)), 0


@pytest.mark.parametrize("seed", range(8))
def test_select_one_bit_rows_matches_sequential_selection(seed):
    # nested prefixes of every row, each trial on its own stream: the picks
    # and eligible counts of one scalar selection per (prefix, row) in that
    # order, outages included, and every stream left at the same place
    rng = np.random.default_rng(seed)
    trials, rows, kmax = 4, 3, 40
    metrics = rng.random((trials, rows, kmax))
    ks = np.sort(rng.choice(np.arange(1, kmax + 1), size=4, replace=False))
    xs = rng.choice([0.0, 0.02, 0.1, 0.5, 1.0], size=4)
    streams = [np.random.default_rng([seed, t]) for t in range(trials)]
    refs = [np.random.default_rng([seed, t]) for t in range(trials)]
    selected, eligible = select_one_bit_rows(metrics, ks, xs, streams)
    assert selected.shape == eligible.shape == (trials, len(ks), rows)
    for t in range(trials):
        for n, (K, x) in enumerate(zip(ks, xs)):
            for r in range(rows):
                assert (selected[t, n, r], eligible[t, n, r]) == _sequential_one_bit(
                    metrics[t, r, :K], x, refs[t])
        assert streams[t].integers(7) == refs[t].integers(7)
        assert streams[t].random() == refs[t].random()


def test_select_one_bit_rows_validation():
    m = np.random.default_rng(0).random((2, 3, 5))
    rngs = [np.random.default_rng(t) for t in range(2)]
    for ks in ((0, 3), (2, 6)):
        with pytest.raises(ShapeMismatch):
            select_one_bit_rows(m, ks, (0.5, 0.5), rngs)
    with pytest.raises(ShapeMismatch):
        select_one_bit_rows(m, (5,), (0.5,), rngs[:1])
    with pytest.raises(ShapeMismatch):
        select_one_bit_rows(m[0, 0], (5,), (0.5,), rngs[:1])


def test_select_one_bit_outage_rate_matches_binomial():
    K = 50
    x = optimal_threshold_d1(K)
    p_out = (1.0 - x) ** K
    rng = np.random.default_rng(11)
    hits = (rng.random((10 ** 5, K)).min(axis=1) >= x).mean()
    se = np.sqrt(p_out * (1.0 - p_out) / 10 ** 5)
    assert abs(hits - p_out) <= 3.0 * se


def test_select_one_bit_saturated_threshold_uniform():
    # x >= x_max: everyone eligible, never an outage, uniform choice
    # (one call over all rows draws what one select_one_bit call per row would)
    rng = np.random.default_rng(424242)
    K = 10
    metrics = rng.random((10 ** 5, K))
    selected, eligible = select_one_bit_rows(metrics[None], (K,), (1.0,), (rng,))
    assert (eligible == K).all()
    counts = np.bincount(selected.ravel(), minlength=K)
    expected = 10 ** 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 21.67  # 99th percentile of chi-square with 9 dof


def test_outage_probability_values():
    assert outage_probability(0.0, 5, P21) == 1.0
    assert outage_probability(0.3, 1, P21) == pytest.approx(0.7)
    assert outage_probability(0.5, 2, P21) == pytest.approx(0.25)


def test_expected_metric_one_bit_values():
    assert expected_metric_one_bit(0.5, 2, P21) == pytest.approx(0.375)
    for K in (1, 5, 50):
        assert expected_metric_one_bit(1.0, K, P21) == pytest.approx(0.5)
    with pytest.raises(ShapeMismatch):
        expected_metric_one_bit(0.0, 2, P21)
    with pytest.raises(ShapeMismatch):
        expected_metric_one_bit(1.5, 2, P21)


def test_expected_metric_one_bit_matches_uniform_simulation():
    # d = 1 metric is uniform; uniform random keys realize the uniform
    # pick among eligible reporters
    K = 50
    rng = np.random.default_rng(99)
    for x in (optimal_threshold_d1(K), 0.2):
        target = expected_metric_one_bit(x, K, P21)
        total = 0.0
        for _ in range(10):
            m = rng.random((10 ** 5, K))
            bits = m < x
            keys = np.where(bits, rng.random(m.shape), 2.0)
            sel = np.where(bits.any(axis=1), np.argmin(keys, axis=1),
                           rng.integers(K, size=m.shape[0]))
            total += m[np.arange(m.shape[0]), sel].sum()
        assert abs(total / 10 ** 6 - target) / target < 0.01


def test_expected_metric_upper_bound_values():
    assert expected_metric_upper_bound(0.5, 2, P21) == pytest.approx(0.625)
    assert expected_metric_upper_bound(0.0, 7, P21) == 1.0
    assert expected_metric_upper_bound(0.0, 7, P42) == 2.0


@pytest.mark.parametrize("p,K", [(P21, 2), (P21, 50), (P42, 2), (P42, 50)])
def test_bound_dominates_exact_expectation(p, K):
    xs = np.linspace(p.x_max / 100, p.x_max, 100)
    for x in xs:
        exact = expected_metric_one_bit(float(x), K, p)
        assert expected_metric_upper_bound(float(x), K, p) >= exact - 1e-9


@pytest.mark.parametrize("p", [P21, P42])
def test_conditional_means_bracket_threshold(p):
    # E[D | D < x] < x < E[D | D >= x] under the model density
    c, D, xm = p.c, p.exponent, p.x_max
    weighted = lambda t: t * c * D * t ** (D - 1)
    for x in (0.3 * xm, 0.6 * xm, 0.9 * xm):
        F = c * x ** D
        low = quad(weighted, 0.0, x)[0] / F
        high = quad(weighted, x, xm)[0] / (1.0 - F)
        assert low < x < high


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 10, 100, 1000])
def test_expected_metric_one_bit_matches_quadrature(d, K):
    # the closed-form conditional means against adaptive quadrature of the
    # model density c D t^(D-1) on [0, x_max], x_max included
    p = ManifoldParams(2 * d, d)
    c, D, xm = p.c, p.exponent, p.x_max
    weighted = lambda t: t * c * D * t ** (D - 1)
    for x in (1e-3 * xm, 0.1 * xm, 0.5 * xm, 0.9 * xm, 0.999 * xm, xm):
        F = min(c * x ** D, 1.0)
        p_out = (1.0 - F) ** K
        low = quad(weighted, 0.0, x, epsabs=0.0, epsrel=1e-13)[0] / F
        high = (quad(weighted, x, xm, epsabs=0.0, epsrel=1e-13)[0] / (1.0 - F)
                if p_out > 0.0 and x < xm else x)
        exact = (1.0 - p_out) * low + p_out * high
        assert expected_metric_one_bit(x, K, p) == pytest.approx(exact, rel=1e-12)


def test_expected_metric_upper_bound_dominates_simulation_d2():
    # selected-user metric of the 1-bit protocol on G(4, 2) subspace draws
    rng = np.random.default_rng(21)
    x, K, trials = 0.3, 100, 10 ** 4
    ref = np.eye(4, 2)
    total = 0.0
    for _ in range(10):
        z = (rng.standard_normal((trials // 10, K, 4, 2))
             + 1j * rng.standard_normal((trials // 10, K, 4, 2)))
        q = np.linalg.qr(z)[0]
        inner = np.einsum("ij,tkil->tkjl", ref.conj(), q)
        dist = 2.0 - (np.abs(inner) ** 2).sum(axis=(2, 3))
        bits = dist < x
        keys = np.where(bits, rng.random(bits.shape), 2.0)
        sel = np.where(bits.any(axis=1), np.argmin(keys, axis=1),
                       rng.integers(K, size=dist.shape[0]))
        total += dist[np.arange(dist.shape[0]), sel].sum()
    assert total / trials <= expected_metric_upper_bound(x, K, P42)


def test_conventional_selection_dominates_one_bit():
    rng = np.random.default_rng(606)
    K, n = 20, 20000
    m = rng.random((n, K))
    conv = m.min(axis=1)
    bits = m < 0.15
    keys = np.where(bits, rng.random(m.shape), 2.0)
    sel = np.where(bits.any(axis=1), np.argmin(keys, axis=1),
                   rng.integers(K, size=n))
    one_bit = m[np.arange(n), sel]
    diff = one_bit.mean() - conv.mean()
    se = np.sqrt(one_bit.var(ddof=1) / n + conv.var(ddof=1) / n)
    assert diff > 3.0 * se


def test_expected_eligible_values():
    K = 1000
    x = optimal_threshold_d1(K)
    value = expected_eligible(x, K, P21)
    assert value == pytest.approx(1000.0 * (1.0 - (1.0 / 1000.0) ** (1.0 / 999.0)),
                                  rel=1e-12)
    assert value == pytest.approx(6.89, abs=0.01)
    assert value < 0.01 * K
    assert expected_eligible(P21.x_max, K, P21) == pytest.approx(K)
    with pytest.raises(ShapeMismatch):
        expected_eligible(0.5, 0, P21)
