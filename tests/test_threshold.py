"""Threshold design: closed form, Lambert W, asymptotic, numeric oracle."""

import decimal
import math

import numpy as np
import pytest
import scipy.special

from oiasim import (LambertDomain, ShapeMismatch, TooFewUsers, ball_volume,
                    expected_eligible, expected_metric_one_bit,
                    expected_metric_upper_bound, lambert_w, metric_cdf,
                    min_expected_metric_d1, optimal_threshold_d1,
                    outage_probability, support_edge, threshold_asymptotic,
                    threshold_lambert, threshold_numeric)


def test_optimal_threshold_d1_values():
    assert optimal_threshold_d1(2) == pytest.approx(0.5, rel=1e-12)
    assert optimal_threshold_d1(10) == pytest.approx(1.0 - 0.1 ** (1.0 / 9.0),
                                                     rel=1e-12)
    assert optimal_threshold_d1(1) == pytest.approx(1.0 - math.exp(-1.0),
                                                    rel=1e-12)
    with pytest.raises(TooFewUsers):
        optimal_threshold_d1(0)


def test_optimal_threshold_d1_grid_search_oracle():
    # independent objective: (1-(1-x)^K) x/2 + (1-x)^K (1+x)/2
    K = 100
    xs = np.arange(1e-5, 1.0, 1e-5)
    surv = (1.0 - xs) ** K
    vals = (1.0 - surv) * xs / 2.0 + surv * (1.0 + xs) / 2.0
    assert abs(xs[np.argmin(vals)] - optimal_threshold_d1(K)) < 1e-4


def test_min_expected_metric_d1_values():
    assert min_expected_metric_d1(2) == pytest.approx(0.375, rel=1e-12)
    with pytest.raises(TooFewUsers):
        min_expected_metric_d1(1)


def test_min_expected_metric_d1_consistency():
    for K in (2, 10, 100, 1000):
        x = optimal_threshold_d1(K)
        assert min_expected_metric_d1(K) == pytest.approx(
            expected_metric_one_bit(x, K, 1), abs=1e-12)


def test_min_expected_metric_d1_asymptotics():
    # approaches log(K) / (2K) from above
    for K, lo, hi in ((10 ** 5, 0.85, 1.15), (10 ** 6, 0.9, 1.1)):
        ratio = min_expected_metric_d1(K) * 2.0 * K / math.log(K)
        assert lo <= ratio <= hi
    assert min_expected_metric_d1(10 ** 7) < min_expected_metric_d1(10 ** 6)


def _d1_reference(K):
    """optimal_threshold_d1(K) and min_expected_metric_d1(K) to 50 digits:
    x = 1 - e^{-t} with t = log(K)/(K-1), summed as its alternating series
    (t <= log 2), which does not cancel, and the metric e^{-t}/(2K) + x/2."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        K = decimal.Decimal(K)
        t = K.ln() / (K - 1)
        x, term, n = decimal.Decimal(0), decimal.Decimal(-1), 1
        while True:
            term = -term * t / n
            if x + term == x:
                break
            x, n = x + term, n + 1
        return float(x), float((1 - x) / (2 * K) + x / 2)


@pytest.mark.parametrize("K", [2, 3, 7, 10, 100, 12345, 10 ** 5, 10 ** 8, 10 ** 10,
                               10 ** 15, 10 ** 17, 10 ** 18, 10 ** 30, 10 ** 100,
                               10 ** 300],
                         ids=lambda K: str(K) if K < 10 ** 6 else f"10^{len(str(K)) - 1}")
def test_d1_closed_forms_equal_a_50_digit_reference(K):
    # no cancellation at large K: 1 - (1/K)^(1/(K-1)) read 0 from K = 10^18
    x, m = _d1_reference(K)
    assert optimal_threshold_d1(K) == pytest.approx(x, rel=4e-16, abs=0)
    assert min_expected_metric_d1(K) == pytest.approx(m, rel=4e-16, abs=0)


def test_lambert_w_basic_values():
    assert lambert_w(0, 0.0) == 0.0
    assert lambert_w(0, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-12)
    assert lambert_w(-1, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-12)
    assert lambert_w(-1, -0.1) == pytest.approx(-3.577152, abs=1e-6)
    assert lambert_w(0, 1.0) == pytest.approx(0.5671432904097838, rel=1e-12)


def test_lambert_w_domain_errors():
    with pytest.raises(LambertDomain):
        lambert_w(0, -1.0 / math.e - 1e-6)
    with pytest.raises(LambertDomain):
        lambert_w(-1, 0.0)
    with pytest.raises(LambertDomain):
        lambert_w(-1, 0.5)
    with pytest.raises(LambertDomain):
        lambert_w(2, 1.0)


def test_lambert_w_matches_scipy():
    for z in np.logspace(-6, 6, 25):
        assert lambert_w(0, float(z)) == pytest.approx(
            float(scipy.special.lambertw(z, 0).real), rel=1e-10)
    # stay away from the branch point, where w-space accuracy degrades
    # for both implementations
    for z in -np.logspace(-6, -0.5, 25):
        assert lambert_w(-1, float(z)) == pytest.approx(
            float(scipy.special.lambertw(z, -1).real), rel=1e-10)
        assert lambert_w(0, float(z)) == pytest.approx(
            float(scipy.special.lambertw(z, 0).real), rel=1e-10)


def test_lambert_w_residuals_both_branches():
    for z in np.logspace(-8, 8, 1000):
        w = lambert_w(0, float(z))
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, z)
    for z in -np.logspace(-8, math.log10(1 / math.e) - 1e-12, 1000):
        z = float(z)
        for branch in (0, -1):
            w = lambert_w(branch, z)
            assert abs(w * math.exp(w) - z) <= 1e-12
    assert lambert_w(0, -1e-9) > -1.0
    assert lambert_w(-1, -1e-9) < -1.0


def test_threshold_lambert_close_to_numeric_and_converging():
    gaps = []
    for K in (100, 1000, 10000):
        xl = threshold_lambert(K, 2)
        xn = threshold_numeric(K, 2)
        gaps.append(abs(xl - xn) / xn)
    assert gaps[0] < 0.1
    assert gaps[0] > gaps[1] > gaps[2]


def test_threshold_lambert_stationarity_of_its_objective():
    # the closed form targets x + d exp(-K c x^(d^2)); its derivative at
    # the returned x is smaller in magnitude than 10% to either side
    K = 100
    x = threshold_lambert(K, 2)
    obj = lambda t: t + 2 * math.exp(-K * ball_volume(2) * t ** 4)
    def slope(t, eps=1e-7):
        return abs((obj(t * (1 + eps)) - obj(t * (1 - eps))) / (2 * t * eps))
    assert slope(x) < slope(0.9 * x)
    assert slope(x) < slope(1.1 * x)


def test_threshold_lambert_d1_reduction():
    for K in (10, 100, 1000):
        assert threshold_lambert(K, 1) == pytest.approx(math.log(K) / K,
                                                        rel=1e-12)


def test_threshold_lambert_too_few_users():
    with pytest.raises(TooFewUsers):
        threshold_lambert(2, 2)


def test_threshold_lambert_takes_d3_K_past_the_largest_double():
    # d^3 K = 18^3 2^1012 is no double: its power goes through its log,
    # where the direct power raised OverflowError
    with pytest.raises(OverflowError):
        float(18 ** 3 * 2 ** 1012)
    assert threshold_lambert(2 ** 1012, 18) == pytest.approx(0.8779370933, rel=1e-9)
    # the direct form is kept where it is finite: 18^3 2^1000 is a double
    assert threshold_lambert(2 ** 1000, 18) == pytest.approx(0.9007672881, rel=1e-9)
    # at d = 2 the Lambert argument underflows to -0, as at K = 2^1000
    for K in (2 ** 1000, 2 ** 1022):
        with pytest.raises(TooFewUsers, match="-0"):
            threshold_lambert(K, 2)


def test_threshold_asymptotic_values():
    assert threshold_asymptotic(7, 1) == pytest.approx(math.log(7.0) / 7.0,
                                                       rel=1e-12)
    expected = (0.25 * math.log(10 ** 4) / (0.5 * 10 ** 4)) ** 0.25
    assert threshold_asymptotic(10 ** 4, 2) == pytest.approx(expected,
                                                             rel=1e-12)
    with pytest.raises(TooFewUsers):
        threshold_asymptotic(1, 2)


def test_threshold_asymptotic_constant_term():
    # the constant term of ((A log K + B)/(c K))^(1/d^2) is B = 0
    for K, d in ((1000, 2), (50, 3)):
        dsq = d * d
        y = (1.0 / dsq) * math.log(K) / K
        assert threshold_asymptotic(K, d) == (y / ball_volume(d)) ** (1.0 / dsq)


def test_threshold_asymptotic_below_lambert_and_converging():
    ratios = []
    for K in (10 ** 3, 10 ** 5, 10 ** 7):
        xa = threshold_asymptotic(K, 2)
        xl = threshold_lambert(K, 2)
        assert xa < xl
        ratios.append(xa / xl)
    assert abs(ratios[0] - 1) > abs(ratios[1] - 1) > abs(ratios[2] - 1)


def test_threshold_numeric_exact_mode_matches_closed_form():
    # at d = 1 the numeric design is the closed form, bit for bit, also at
    # K = 10^12, where a 9-decade grid would stop at its floor
    for K in (*range(1, 201), *(10 ** e for e in range(3, 13)), 2 ** 1000):
        assert threshold_numeric(K, 1) == optimal_threshold_d1(K), K
    x16, x18, x24 = (threshold_numeric(10 ** e, 1) for e in (16, 18, 24))
    assert x16 > x18 > x24 > 0.0


def test_threshold_numeric_stationary_on_bound():
    K = 100
    x = threshold_numeric(K, 2)
    f = lambda t: expected_metric_upper_bound(t, K, 2)
    def slope(t, eps=1e-7):
        return abs((f(t * (1 + eps)) - f(t * (1 - eps))) / (2 * t * eps))
    assert slope(x) < slope(0.9 * x)
    assert slope(x) < slope(1.1 * x)


_SWEEP_KS = tuple(range(1, 120)) + (200, 500, 1000, 5000, 10000, 100000)


def _scalar_loop_thresholds(d):
    """threshold_numeric at d > 1 with its grid evaluated one scalar at a
    time, for every K of _SWEEP_KS: {K: threshold}. One pass over the grid
    serves all K; each value takes the operations, in the order, of
    expected_metric_upper_bound, which a sample of the grid checks bit for
    bit."""
    from scipy.optimize import golden
    x_max = support_edge(d)
    grid = np.logspace(np.log10(x_max) - 9.0, np.log10(x_max), 10000)
    vals = {K: [] for K in _SWEEP_KS}
    for x in grid.tolist():
        Fb = metric_cdf(x, d)
        for K in _SWEEP_KS:
            vals[K].append(x + (d - x) * (1.0 - Fb) ** K)
    out = {}
    for K, v in vals.items():
        fun = lambda x: expected_metric_upper_bound(x, K, d)
        for j in range(0, len(grid), 997):
            assert v[j] == fun(grid[j])
        i = int(np.argmin(v))
        out[K] = float(grid[i])
        if 0 < i < len(grid) - 1:
            try:
                out[K] = float(golden(
                    fun, brack=(grid[i - 1], grid[i], grid[i + 1]), tol=1e-8))
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_threshold_numeric_equals_scalar_loop_reference(d):
    # the objective's values over the whole grid may differ in the last bits
    # from its scalar calls', but its argmin, and so the threshold, may not
    for K, x in _scalar_loop_thresholds(d).items():
        assert threshold_numeric(K, d) == x, K


def _objective_on_grid(grid, K, d):
    """Reference for the expected selected metric, written out in one numpy
    pass: expected_metric_one_bit at d = 1, where the closed form minimizes
    it, and the upper bound, threshold_numeric's grid objective, otherwise.
    The elementwise functionals must give its bits over the whole grid."""
    c, D, x_max = ball_volume(d), d * d, support_edge(d)
    x = grid if d > 1 else np.minimum(grid, x_max)
    F = np.minimum(c * x**D, 1.0)
    p_out = (1.0 - F) ** K
    if d > 1:
        return x + (d - x) * p_out
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_high = (c * D / (D + 1)) * (x_max ** (D + 1) - x ** (D + 1)) / (1.0 - F)
    return (1.0 - p_out) * (D * x / (D + 1)) + p_out * np.where(p_out > 0.0, mean_high, x)


@pytest.mark.parametrize("K", [1, 10, 1000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_metric_law_functionals_are_elementwise(d, K):
    # On threshold_numeric's grid every functional returns the grid's shape
    # and, element by element, its scalar call's value within 8 eps of
    # max(|value|, 1). An array's ** may take numpy's SIMD pow, which may
    # round F's power and the outage power an ulp or so away from the C
    # library's; F enters (1 - F)^K with gain K F (1 - F)^(K-1) <= 1, so
    # each value moves by a few eps of max(|value|, 1) (at most 2.5 seen
    # under numpy 2.4.6 on AVX-512). A float in gives a float out.
    x_max = support_edge(d)
    grid = np.logspace(np.log10(x_max) - 9.0, np.log10(x_max), 10000)
    functionals = {
        "metric_cdf": lambda x: metric_cdf(x, d),
        "outage_probability": lambda x: outage_probability(x, K, d),
        "expected_eligible": lambda x: expected_eligible(x, K, d),
        "expected_metric_one_bit": lambda x: expected_metric_one_bit(x, K, d),
        "expected_metric_upper_bound": lambda x: expected_metric_upper_bound(x, K, d),
    }
    eps = np.finfo(float).eps
    for name, f in functionals.items():
        values = f(grid)
        assert isinstance(values, np.ndarray) and values.shape == grid.shape, name
        scalars = [f(x) for x in grid.tolist()]
        assert all(isinstance(v, float) for v in scalars), name
        scalars = np.array(scalars)
        assert (np.abs(values - scalars) <= 8 * eps * np.maximum(np.abs(scalars), 1.0)).all(), name
    for bad in (0.0, -1e-3, x_max * (1 + 1e-9), np.nan):
        with pytest.raises(ShapeMismatch):
            expected_metric_one_bit(np.append(grid, bad), K, d)
    # the objective of d, over threshold_numeric's whole grid, has the
    # reference's bits, so the grid's argmin holds on every numpy version
    objective = expected_metric_one_bit if d == 1 else expected_metric_upper_bound
    assert np.array_equal(objective(grid, K, d), _objective_on_grid(grid, K, d))


def test_bound_objective_unimodal_on_grid():
    xm = support_edge(2)
    grid = np.logspace(np.log10(xm) - 9.0, np.log10(xm), 10000)
    vals = np.array([expected_metric_upper_bound(float(t), 100, 2)
                     for t in grid])
    dv = np.diff(vals)
    signs = np.sign(dv[dv != 0.0])
    assert int(np.count_nonzero(signs[1:] != signs[:-1])) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_dof_loss_proxy_decreases_with_power(d):
    # with K = ceil(P^d), log2(P * bound) / log2(P) must fall toward its
    # degrees-of-freedom limit as P grows
    seq = []
    for P in (10.0, 100.0, 1000.0, 10000.0):
        K = math.ceil(P ** d)
        x = threshold_numeric(K, d)
        seq.append(math.log2(P * expected_metric_upper_bound(x, K, d))
                   / math.log2(P))
    assert all(a > b for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("design", [threshold_lambert, threshold_asymptotic,
                                    threshold_numeric])
@pytest.mark.parametrize("d", [0, -1])
def test_threshold_designs_refuse_d_below_one(design, d):
    with pytest.raises(ShapeMismatch):
        design(100, d)


@pytest.mark.parametrize("design", [threshold_lambert, threshold_asymptotic,
                                    threshold_numeric])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("K", [0, -1])
def test_threshold_designs_refuse_k_below_one(design, d, K):
    with pytest.raises(TooFewUsers):
        design(K, d)


_DESIGN_KS = (1, 2, 3, 10, 100, 10 ** 3, 10 ** 4, 10 ** 5)
# optimal_threshold_d1 at every K of _DESIGN_KS, recorded when it took the
# expm1 form; the numeric design returns it at d = 1
_CLOSED_FORM_D1 = (
    0.6321205588285577, 0.5, 0.42264973081037427, 0.22573631731887295,
    0.04545154333816597, 0.00689081862502034, 0.0009207020433491782,
    0.00011512377870290942)
# each design's value at every K of _DESIGN_KS, recorded before the metric
# law was keyed by d alone; None where the design raised TooFewUsers. The
# Lambert value at d = 2 and K = 10^5 moved by one ulp when (d^3 K)^(1/alpha)
# was computed through its log alone
_DESIGN_VALUES = {
    ("closed_form_d1", 1): _CLOSED_FORM_D1,
    ("lambert", 1): (
        None, 0.34657359027997264, 0.3662040962227033, 0.23025850929940458,
        0.04605170185988092, 0.006907755278982137, 0.0009210340371976184,
        0.00011512925464970229),
    ("lambert", 2): (
        None, None, None, 0.960878892992925, 0.5609346815782484,
        0.32562192198266715, 0.18825465820984078, 0.10850025541362612),
    ("lambert", 3): (
        None, None, None, 1.4936062559439982, 1.1605307888420093,
        0.9016233485296741, 0.7003984066347547, 0.5440262769992671),
    ("asymptotic", 1): (
        None, 0.34657359027997264, 0.3662040962227033, 0.23025850929940458,
        0.04605170185988092, 0.006907755278982137, 0.0009210340371976184,
        0.00011512925464970229),
    ("asymptotic", 2): (
        None, 0.6451955560749384, 0.6541439070282776, 0.5825006619916888,
        0.38954167034928966, 0.2424246274864004, 0.1464911610401579,
        0.08710416549698259),
    ("asymptotic", 3): (
        None, 1.0548731775692375, 1.0613506409990938, 1.0080200332312184,
        0.8429577920082362, 0.6827479641590566, 0.5457973020390311,
        0.4331996057090815),
    ("numeric", 1): _CLOSED_FORM_D1,
    ("numeric", 2): (
        1.189207115002721, 1.1272902884601046, 1.0567428549299678,
        0.8481329839695775, 0.522664090707468, 0.3099655054436268,
        0.1811099347764941, 0.10504185455643072),
    ("numeric", 3): (
        1.514820006411103, 1.504582523477747, 1.4751915432390108,
        1.3400643269671004, 1.064938477216204, 0.835039353381908,
        0.6526390682282672, 0.5093253534831355),
}
_DESIGNS = {"closed_form_d1": lambda K, d: optimal_threshold_d1(K),
            "lambert": threshold_lambert, "asymptotic": threshold_asymptotic,
            "numeric": threshold_numeric}
_PINNED_VERSIONS = ("2.4.6", "1.17.1")


@pytest.mark.parametrize("method, d", sorted(_DESIGN_VALUES))
def test_design_values_are_pinned(method, d):
    # bit for bit, or the same TooFewUsers, at every K
    if (np.__version__, scipy.__version__) != _PINNED_VERSIONS:
        pytest.skip(f"pinned under numpy {_PINNED_VERSIONS[0]} and scipy "
                    f"{_PINNED_VERSIONS[1]}")
    for K, expected in zip(_DESIGN_KS, _DESIGN_VALUES[method, d]):
        if expected is None:
            with pytest.raises(TooFewUsers):
                _DESIGNS[method](K, d)
        else:
            assert _DESIGNS[method](K, d) == expected, K


@pytest.mark.xfail(strict=True, reason="known defect at d >= 2: 1 - F rounds to 1 "
                   "inside (1 - F)^K and the grid spans 9 decades, so the numeric "
                   "design saturates at large K; the exact form moves the fig5_d2 pin")
def test_numeric_design_keeps_falling_at_large_K():
    # the optimal threshold shrinks as K grows: at d = 2 from 2.2e-4 to
    # 7.3e-5 to 2.4e-6 (at d = 1 the closed form does, tested above)
    x16, x18, x24 = (threshold_numeric(10 ** e, 2) for e in (16, 18, 24))
    assert x16 > x18 > x24
