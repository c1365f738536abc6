"""User selection protocols and their analytic performance functionals.

Conventional opportunistic selection feeds back the real-valued metric and
the transmitter picks the argmin. The 1-bit protocol compares each user's
metric against a threshold x, collects one bit per user, serves a uniformly
random eligible user, and falls back to a uniformly random user when nobody
is eligible (a scheduling outage). The functionals are closed forms at every d.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .grassmann import ManifoldParams, metric_cdf


def select_conventional(metrics: np.ndarray):
    """Index of the minimal metric along the last axis, for one row or each
    row of a stack; ties go to the lowest index."""
    metrics = np.asarray(metrics)
    if metrics.size < 1:
        raise ShapeMismatch("need at least one user")
    return np.argmin(metrics, axis=-1)


def select_one_bit_rows(metrics: np.ndarray, ks, thresholds, rngs):
    """Threshold-based 1-bit selection on nested prefixes of metric rows.

    metrics has shape (trials, ..., K) with K >= max(ks): every row holds
    the metrics of K users. For each n, the first ks[n] users of every row
    take part with threshold thresholds[n]: those below it report '1', and
    the serving transmitter picks uniformly among the '1' reporters, or
    uniformly among all ks[n] users on a scheduling outage.

    Trial t makes all its picks with one rngs[t].integers call, in (n, row)
    order; that call draws what one select_one_bit call per (n, row), in
    that order, would draw. Returns the selected users and the eligible
    counts, integer arrays of shape (trials, len(ks), ...); an eligible
    count of 0 marks an outage.
    """
    metrics = np.asarray(metrics)
    if (metrics.ndim < 2 or len(rngs) != len(metrics)
            or min(ks) < 1 or max(ks) > metrics.shape[-1]):
        raise ShapeMismatch(f"metrics of shape {metrics.shape} need one rng per "
                            f"trial and prefixes of 1 to {metrics.shape[-1:]} users")
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


def select_one_bit(metrics: np.ndarray, x: float,
                   rng: np.random.Generator) -> tuple[int, int]:
    """Threshold-based 1-bit selection among the K users of one row of
    metrics; the one-row case of select_one_bit_rows.

    Users whose metric is below x report '1'; the serving transmitter picks
    uniformly among the '1' reporters, or uniformly among all K users on a
    scheduling outage. Returns the selected user and the eligible count,
    ints; an eligible count of 0 marks an outage.
    """
    metrics = np.asarray(metrics)
    if metrics.ndim != 1:
        raise ShapeMismatch(f"need one row of metrics, got shape {metrics.shape}")
    selected, eligible = select_one_bit_rows(metrics[None], (metrics.size,),
                                             (x,), (rng,))
    return int(selected[0, 0]), int(eligible[0, 0])


def outage_probability(x: float, K: int, p: ManifoldParams) -> float:
    """Probability that all K users exceed the threshold, (1 - F(x))^K."""
    return (1.0 - metric_cdf(x, p)) ** K


def expected_metric_one_bit(x: float, K: int, p: ManifoldParams) -> float:
    """Expected selected-user metric of the 1-bit protocol at threshold x.

    (1 - P_out) E[D | D < x] + P_out E[D | D >= x] under the model density
    f(t) = c D t^(D-1) on [0, x_max], in closed form at every d:
    E[D | D < x] = D x / (D + 1) and
    E[D | D >= x] = c D (x_max^(D+1) - x^(D+1)) / ((D + 1)(1 - F(x))).
    """
    x_max = p.x_max
    if not 0.0 < x <= x_max + 1e-12:
        raise ShapeMismatch(f"threshold must lie in (0, {x_max:.6g}]")
    x = min(x, x_max)
    F = metric_cdf(x, p)
    p_out = (1.0 - F) ** K
    D = p.exponent
    mean_low = D * x / (D + 1)
    if p_out > 0.0:
        mean_high = (p.c * D / (D + 1)) * (x_max ** (D + 1) - x ** (D + 1)) / (1.0 - F)
    else:
        mean_high = x
    return (1.0 - p_out) * mean_low + p_out * mean_high


def expected_metric_upper_bound(x: float, K: int, p: ManifoldParams) -> float:
    """Upper bound x + (d - x)(1 - F(x))^K on the expected selected metric,
    obtained by pushing both conditional means to their upper limits."""
    if x <= 0.0:
        return float(p.d)
    return x + (p.d - x) * (1.0 - metric_cdf(x, p)) ** K


def expected_eligible(x: float, K: int, p: ManifoldParams) -> float:
    """Average number of users reporting '1', K * F(x)."""
    if K < 1:
        raise ShapeMismatch("K must be at least 1")
    return K * metric_cdf(x, p)
