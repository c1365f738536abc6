"""User selection protocols and their analytic performance functionals.

Conventional opportunistic selection feeds back the real-valued metric and
the transmitter picks the argmin. The 1-bit protocol compares each user's
metric against a threshold x, collects one bit per user, serves a uniformly
random eligible user, and falls back to a uniformly random user when nobody
is eligible (a scheduling outage). The functionals take the number of
streams d, with the metric on G(2d, d) (grassmann.metric_cdf), refuse any d
that grassmann.ball_volume refuses, and are closed forms at every d,
elementwise in x: a float gives a float (np.float64), an array an array.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .grassmann import ball_volume, metric_cdf, support_edge


def select_conventional(metrics: np.ndarray):
    """Index of the minimal metric along the last axis, for one row or each
    row of a stack; ties go to the lowest index."""
    metrics = np.asarray(metrics)
    if metrics.size < 1:
        raise ShapeMismatch("need at least one user")
    return np.argmin(metrics, axis=-1)


def select_one_bit(metrics: np.ndarray, ks, thresholds, rngs):
    """Threshold-based 1-bit selection on nested prefixes of metric rows.

    metrics has shape (trials, ..., K) with K >= max(ks): every row holds
    the metrics of K users. For each n, the first ks[n] users of every row
    take part with threshold thresholds[n]: those below it report '1', and
    the serving transmitter picks uniformly among the '1' reporters, or
    uniformly among all ks[n] users on a scheduling outage.

    Trial t makes all its picks with one rngs[t].integers call, in (n, row)
    order; that call draws what one scalar integers call per (n, row), in
    that order, would draw. Returns the selected users and the eligible
    counts, integer arrays of shape (trials, len(ks), ...); an eligible
    count of 0 marks an outage.
    """
    metrics = np.asarray(metrics)
    if (metrics.ndim < 2 or len(rngs) != len(metrics) or len(ks) < 1
            or np.shape(thresholds) != (len(ks),)
            or min(ks) < 1 or max(ks) > metrics.shape[-1]):
        raise ShapeMismatch(f"metrics of shape {metrics.shape} need one rng per trial "
                            f"and a threshold per prefix of 1 to {metrics.shape[-1:]} users")
    kmax = metrics.shape[-1]
    lead = (len(ks),) + (1,) * (metrics.ndim - 1)
    bits = metrics[:, None] < np.reshape(thresholds, lead)
    for n, K in enumerate(ks):
        bits[:, n, ..., K:] = False
    # every '1' report, row after row
    rows, users = np.divmod(np.flatnonzero(bits), kmax)
    eligible = np.bincount(rows, minlength=bits.size // kmax).reshape(bits.shape[:-1])
    highs = np.where(eligible > 0, eligible, np.reshape(ks, lead[:-1]))
    draws = np.array([rng.integers(h) for rng, h in zip(rngs, highs)])
    # the pick of a row is its draws-th report (users gets a pad for the
    # rows in outage, whose pick is draws itself)
    users = np.append(users, 0)
    at = np.cumsum(eligible).reshape(eligible.shape) - eligible + draws
    return np.where(eligible > 0, users[np.minimum(at, len(users) - 1)], draws), eligible


def outage_probability(x, K: int, d: int):
    """Probability that all K users exceed the threshold, (1 - F(x))^K."""
    return (1.0 - metric_cdf(x, d)) ** K


def expected_metric_one_bit(x, K: int, d: int):
    """Expected selected-user metric of the 1-bit protocol at threshold x.

    (1 - P_out) E[D | D < x] + P_out E[D | D >= x] under the model density
    f(t) = c D t^(D-1) on [0, x_max], D = d^2, in closed form at every d:
    E[D | D < x] = D x / (D + 1) and
    E[D | D >= x] = c D (x_max^(D+1) - x^(D+1)) / ((D + 1)(1 - F(x))),
    or x where P_out = 0, for every x in (0, x_max].
    """
    x_max = support_edge(d)
    if not np.all((0.0 < x) & (x <= x_max + 1e-12)):
        raise ShapeMismatch(f"threshold must lie in (0, {x_max:.6g}]")
    x = np.minimum(x, x_max)
    F = metric_cdf(x, d)
    p_out = outage_probability(x, K, d)
    D = d * d
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_high = (ball_volume(d) * D / (D + 1)) * (x_max ** (D + 1) - x ** (D + 1)) / (1.0 - F)
    return ((1.0 - p_out) * (D * x / (D + 1))
            + p_out * np.where(p_out > 0.0, mean_high, x))[()]


def expected_metric_upper_bound(x, K: int, d: int):
    """Upper bound x + (d - x)(1 - F(x))^K, or d at x <= 0, on the expected
    selected metric, pushing both conditional means to their upper limits."""
    return np.where(x <= 0.0, d, x + (d - x) * outage_probability(x, K, d))[()]


def expected_eligible(x, K: int, d: int):
    """Average number of users reporting '1', K * F(x)."""
    if K < 1:
        raise ShapeMismatch("K must be at least 1")
    return K * metric_cdf(x, d)
