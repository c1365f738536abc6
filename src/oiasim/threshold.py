"""Design of the 1-bit feedback threshold.

Each design takes K users per cell and d streams, with nr = 2d, so the
metric lives on G(2d, d) with CDF exponent d^2 and constant
c = grassmann.ball_volume(d), which refuses d outside 1..grassmann.MAX_D. For d = 1 the expected
selected-user metric has a closed-form minimizer, which the numeric design
returns. For d > 1 the expected-metric upper bound
x + (d - x)(1 - c x^{d^2})^K is minimized either on a grid refined by
golden-section search (numeric), through the Lambert W function after an
exponential approximation of the outage factor, or by the asymptotic form
(A log K / (c K))^{1/d^2} that drops the constant term.

scipy is imported on first use: by lambert_w, by threshold_numeric at
d > 1 (golden) and by the G(2d, d) constant c at d > 1 (gammaln).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LambertDomain, TooFewUsers
from .grassmann import ball_volume, support_edge
from .oia import expected_metric_upper_bound

_BRANCH_POINT = -1.0 / math.e


def optimal_threshold_d1(K: int) -> float:
    """Exact optimal threshold for d = 1: x = 1 - (1/K)^(1/(K-1)), computed
    as -expm1(-log(K)/(K-1)), which does not cancel at large K.

    K = 1 returns the continuity limit 1 - 1/e; selection is forced anyway.
    """
    if K < 1:
        raise TooFewUsers("K must be at least 1")
    if K == 1:
        return 1.0 - math.exp(-1.0)
    return -math.expm1(-math.log(K) / (K - 1))


def min_expected_metric_d1(K: int) -> float:
    """Minimum expected selected metric for d = 1 at the optimal threshold:
    (1/2)(1/K)^(K/(K-1)) - (1/2)(1/K)^(1/(K-1)) + 1/2, computed from
    t = log(K)/(K-1) as e^{-t}/(2K) - expm1(-t)/2."""
    if K < 2:
        raise TooFewUsers("closed form requires K >= 2")
    t = math.log(K) / (K - 1)
    return 0.5 * math.exp(-t) / K - 0.5 * math.expm1(-t)


def lambert_w(branch: int, z: float) -> float:
    """Real Lambert W: the w solving w e^w = z on the requested branch.

    Branch 0 is defined for z >= -1/e and returns w >= -1; branch -1 for
    -1/e <= z < 0 and returns w <= -1. Values come from
    scipy.special.lambertw; the branch point itself returns -1 exactly
    (scipy gives nan there).
    """
    if branch not in (0, -1):
        raise LambertDomain("branch must be 0 or -1")
    if z < _BRANCH_POINT - 1e-14:
        raise LambertDomain(f"z={z} below the branch point -1/e")
    if branch == -1 and z >= 0.0:
        raise LambertDomain("branch -1 requires z < 0")
    z = max(z, _BRANCH_POINT)
    if z == _BRANCH_POINT:
        return -1.0
    from scipy.special import lambertw
    return float(lambertw(z, branch).real)


def threshold_lambert(K: int, d: int) -> float:
    """Threshold from the Lambert W_{-1} stationary point of the
    exponential-approximation objective (y/c)^(1/d^2) + d e^{-K y}.

    For d = 1 the stationary point is y = log(K)/K directly. Raises
    TooFewUsers when K is below the validity range of the method.
    """
    c = ball_volume(d)
    if K < 1:
        raise TooFewUsers("K must be at least 1")
    dsq = d * d
    alpha = 1.0 / dsq - 1.0
    if d == 1:
        y = math.log(K) / K if K > 1 else 0.0
    else:
        try:  # d^3 K past the largest double: its power through its log
            arg = K * c * (d**3 * K) ** (1.0 / alpha) / alpha
        except OverflowError:
            arg = K * c * math.exp(math.log(d**3 * K) / alpha) / alpha
        if not _BRANCH_POINT <= arg < 0.0:
            raise TooFewUsers(f"Lambert argument {arg:.6g} outside [-1/e, 0)")
        y = alpha / K * lambert_w(-1, arg)
    if not 0.0 < y < 1.0:
        raise TooFewUsers(f"stationary point y={y:.6g} outside (0, 1)")
    return (y / c) ** (1.0 / dsq)


def threshold_asymptotic(K: int, d: int) -> float:
    """Asymptotic threshold x = (A log K/(c K))^(1/d^2) with A = 1/d^2;
    the constant term of the paper's form is 0 (it does not affect the
    achieved degrees of freedom)."""
    c = ball_volume(d)
    if K < 2:
        raise TooFewUsers("asymptotic form requires K >= 2")
    dsq = d * d
    A = 1.0 / dsq
    y = A * math.log(K) / K
    if not 0.0 < y < 1.0:
        raise TooFewUsers(f"asymptotic y={y:.6g} outside (0, 1)")
    return (y / c) ** (1.0 / dsq)


def threshold_numeric(K: int, d: int) -> float:
    """The optimal threshold: optimal_threshold_d1(K) at d = 1, the exact
    minimizer of the expected selected metric there. At d > 1 the argmin of
    the closed-form upper bound on a 10,000-point log grid, taken over the
    whole grid at once, then refined by golden-section search around it.
    """
    if d == 1:
        return optimal_threshold_d1(K)
    x_max = support_edge(d)
    if K < 1:
        raise TooFewUsers("K must be at least 1")
    grid = np.logspace(np.log10(x_max) - 9.0, np.log10(x_max), 10000)
    i = int(np.argmin(expected_metric_upper_bound(grid, K, d)))
    x_star = float(grid[i])
    if 0 < i < len(grid) - 1:
        from scipy.optimize import golden
        try:
            x_star = float(golden(lambda x: expected_metric_upper_bound(x, K, d),
                                  brack=(grid[i - 1], grid[i], grid[i + 1]), tol=1e-8))
        except ValueError:
            # flat bracket; the grid point is already within tolerance
            pass
    return x_star
