"""Selection protocols and their analytic performance functionals."""

import numpy as np
import pytest
from scipy.integrate import quad

from oiasim import (MAX_D, ShapeMismatch, ball_volume, expected_eligible,
                    expected_metric_one_bit, expected_metric_upper_bound,
                    metric_cdf, outage_probability, select_conventional,
                    select_one_bit, support_edge)
from oiasim.threshold import optimal_threshold_d1


def _law(d):
    """d, c, the exponent D = d^2 and the support edge of the metric law
    on G(2d, d)."""
    return d, ball_volume(d), d * d, support_edge(d)


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


def _one_row(metrics, x, rng):
    """select_one_bit on one row of metrics, one trial and one prefix:
    (selected, eligible count) as numpy integers."""
    selected, eligible = select_one_bit(np.asarray(metrics)[None, None],
                                        (len(metrics),), (x,), (rng,))
    return selected[0, 0, 0], eligible[0, 0, 0]


def test_select_one_bit_single_eligible():
    out = _one_row([0.9, 0.05, 0.8], 0.1, np.random.default_rng(0))
    assert out == (1, 1)
    assert all(np.issubdtype(type(v), np.integer) for v in out)


def test_select_one_bit_outage():
    selected, eligible = _one_row([0.9, 0.8], 0.1, np.random.default_rng(0))
    assert eligible == 0
    assert selected in (0, 1)


def test_select_one_bit_picks_within_each_row():
    # rows are never flattened into one: a (3, 10) stack picks users 0..9
    # of each row, and a lone row or a scalar is no stack of rows
    rng = np.random.default_rng(0)
    metrics = rng.random((1, 3, 10))
    for x in (0.0, 0.2, 1.0):
        selected, eligible = select_one_bit(metrics, (10,), (x,), (rng,))
        assert selected.shape == eligible.shape == (1, 1, 3)
        assert ((0 <= selected) & (selected < 10)).all()
        assert eligible.tolist() == [[(metrics[0] < x).sum(axis=1).tolist()]]
    for bad in (rng.random(10), np.float64(0.5)):
        with pytest.raises(ShapeMismatch):
            select_one_bit(bad, (1,), (0.2,), (rng,))


def _sequential_one_bit(metrics, x, rng):
    """Reference 1-bit selection on one row: (selected, eligible count),
    with one scalar rng.integers call."""
    eligible = np.flatnonzero(metrics < x)
    if eligible.size:
        return int(eligible[rng.integers(eligible.size)]), int(eligible.size)
    return int(rng.integers(metrics.size)), 0


@pytest.mark.parametrize("seed", range(8))
def test_select_one_bit_matches_sequential_selection(seed):
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
    selected, eligible = select_one_bit(metrics, ks, xs, streams)
    assert selected.shape == eligible.shape == (trials, len(ks), rows)
    for t in range(trials):
        for n, (K, x) in enumerate(zip(ks, xs)):
            for r in range(rows):
                assert (selected[t, n, r], eligible[t, n, r]) == _sequential_one_bit(
                    metrics[t, r, :K], x, refs[t])
        assert streams[t].integers(7) == refs[t].integers(7)
        assert streams[t].random() == refs[t].random()


def test_select_one_bit_validation():
    m = np.random.default_rng(0).random((2, 3, 10))
    rngs = [np.random.default_rng(t) for t in range(2)]
    states = [rng.bit_generator.state for rng in rngs]
    for ks in ((0, 3), (2, 11)):
        with pytest.raises(ShapeMismatch):
            select_one_bit(m, ks, (0.5, 0.5), rngs)
    # one threshold per prefix, and at least one prefix
    for ks, xs in (((5, 10), (0.5,)), ((5,), (0.5, 0.5)), ((5,), 0.5), ((), ())):
        with pytest.raises(ShapeMismatch):
            select_one_bit(m, ks, xs, rngs)
    with pytest.raises(ShapeMismatch):
        select_one_bit(m, (5,), (0.5,), rngs[:1])
    with pytest.raises(ShapeMismatch):
        select_one_bit(m[0, 0], (5,), (0.5,), rngs[:1])
    # refused before any draw
    assert [rng.bit_generator.state for rng in rngs] == states


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
    # (one call over all rows draws what one scalar integers call per row would)
    rng = np.random.default_rng(424242)
    K = 10
    metrics = rng.random((10 ** 5, K))
    selected, eligible = select_one_bit(metrics[None], (K,), (1.0,), (rng,))
    assert (eligible == K).all()
    counts = np.bincount(selected.ravel(), minlength=K)
    expected = 10 ** 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 21.67  # 99th percentile of chi-square with 9 dof


def test_outage_probability_values():
    assert outage_probability(0.0, 5, 1) == 1.0
    assert outage_probability(0.3, 1, 1) == pytest.approx(0.7)
    assert outage_probability(0.5, 2, 1) == pytest.approx(0.25)


def test_expected_metric_one_bit_values():
    assert expected_metric_one_bit(0.5, 2, 1) == pytest.approx(0.375)
    for K in (1, 5, 50):
        assert expected_metric_one_bit(1.0, K, 1) == pytest.approx(0.5)
    with pytest.raises(ShapeMismatch):
        expected_metric_one_bit(0.0, 2, 1)
    with pytest.raises(ShapeMismatch):
        expected_metric_one_bit(1.5, 2, 1)


def test_expected_metric_one_bit_matches_uniform_simulation():
    # d = 1 metric is uniform; uniform random keys realize the uniform
    # pick among eligible reporters; criterion 9(f) runs the optimal threshold
    K, x = 50, 0.2
    target = expected_metric_one_bit(x, K, 1)
    rng = np.random.default_rng(99)
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
    assert expected_metric_upper_bound(0.5, 2, 1) == pytest.approx(0.625)
    assert expected_metric_upper_bound(0.0, 7, 1) == 1.0
    assert expected_metric_upper_bound(0.0, 7, 2) == 2.0


@pytest.mark.parametrize("p,K", [(_law(1), 2), (_law(1), 50), (_law(2), 2), (_law(2), 50)])
def test_bound_dominates_exact_expectation(p, K):
    d, _, _, xm = p
    for x in np.linspace(xm / 100, xm, 100):
        exact = expected_metric_one_bit(float(x), K, d)
        assert expected_metric_upper_bound(float(x), K, d) >= exact - 1e-9


@pytest.mark.parametrize("p", [_law(1), _law(2)])
def test_conditional_means_bracket_threshold(p):
    # E[D | D < x] < x < E[D | D >= x] under the model density
    _, c, D, xm = p
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
    _, c, D, xm = _law(d)
    weighted = lambda t: t * c * D * t ** (D - 1)
    for x in (1e-3 * xm, 0.1 * xm, 0.5 * xm, 0.9 * xm, 0.999 * xm, xm):
        F = min(c * x ** D, 1.0)
        p_out = (1.0 - F) ** K
        low = quad(weighted, 0.0, x, epsabs=0.0, epsrel=1e-13)[0] / F
        high = (quad(weighted, x, xm, epsabs=0.0, epsrel=1e-13)[0] / (1.0 - F)
                if p_out > 0.0 and x < xm else x)
        exact = (1.0 - p_out) * low + p_out * high
        assert expected_metric_one_bit(x, K, d) == pytest.approx(exact, rel=1e-12)


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
    assert total / trials <= expected_metric_upper_bound(x, K, 2)


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
    value = expected_eligible(x, K, 1)
    assert value == pytest.approx(1000.0 * (1.0 - (1.0 / 1000.0) ** (1.0 / 999.0)),
                                  rel=1e-12)
    assert value == pytest.approx(6.89, abs=0.01)
    assert value < 0.01 * K
    assert expected_eligible(support_edge(1), K, 1) == pytest.approx(K)
    with pytest.raises(ShapeMismatch):
        expected_eligible(0.5, 0, 1)


@pytest.mark.parametrize("d", [0, MAX_D + 1])
def test_metric_law_functionals_refuse_d_outside_the_law(d):
    # through grassmann.ball_volume, before any value is computed
    for f in (lambda x: metric_cdf(x, d),
              lambda x: outage_probability(x, 10, d),
              lambda x: expected_metric_one_bit(x, 10, d),
              lambda x: expected_metric_upper_bound(x, 10, d),
              lambda x: expected_eligible(x, 10, d)):
        with pytest.raises(ShapeMismatch):
            f(0.5)
