"""
Geometry of the user-selection metric
=====================================

A user's selection metric is the squared chordal distance between the
column spaces of its two interference channels, which cell_metrics
computes for every user of a drop. This script checks it against the
projector form of the distance, compares its empirical distribution
with the closed-form CDF, and measures how close the best of K users
comes to the quantization distortion bound.
"""

import numpy as np

from oiasim import (cell_metrics, generate_channels, interferer_indices,
                    metric_cdf, quantization_bound)

rng = np.random.default_rng(2024)


def projector(H):
    """Orthogonal projector Q Q^H onto the column space of each H."""
    Q = np.linalg.qr(H)[0]
    return Q @ Q.conj().swapaxes(-1, -2)


# 1. The metric equals the projector form 0.5 * ||Qp Qp^H - Qq Qq^H||_F^2,
#    with Qp and Qq orthonormal bases of the two interference channels.
print("cell_metrics vs the projector form, worst disagreement over 600 users")
for d in (1, 2):
    ch = generate_channels(rng, d, 200)
    m = cell_metrics(ch)
    worst = 0.0
    for i in range(3):
        p, q = interferer_indices(i)
        diff = projector(ch.h[i, p]) - projector(ch.h[i, q])
        proj = 0.5 * np.linalg.norm(diff, axis=(1, 2)) ** 2
        worst = max(worst, np.max(np.abs(m[i] - proj)))
    print(f"  n={2 * d} d={d}: {worst:.2e}")

# 2. The two interference subspaces are independent and uniform, so the
#    metric has CDF c * x^(d(n-d)) near the origin, exact on [0, 1].
#    Compare against the empirical CDF.
print("\nempirical CDF of the metric vs c * x^(d(n-d)) on [0, 1]")
for d in (1, 2):
    dist = cell_metrics(generate_channels(rng, d, 20000)).ravel()
    xs = np.linspace(0.0, 1.0, 201)
    ecdf = np.searchsorted(np.sort(dist), xs, side="right") / dist.size
    model = np.array([metric_cdf(float(x), d) for x in xs])
    print(f"  n={2 * d} d={d}: sup |ecdf - model| = "
          f"{np.max(np.abs(ecdf - model)):.4f}")

# 3. The best of K users, the minimum of K i.i.d. metrics, has expected
#    value below (Gamma(1/D)/D) * K^(-1/D), D = n - 1, the distortion bound
#    of a random codebook of K unit vectors in C^n; the d = 1 metric is that
#    distance at n = 2.
#    At K = 64 the bound is 1/64 against a mean of 1/65, so the mean is
#    taken over 36000 minima (12 batches of 1000 drops, three cells each),
#    whose standard error is a third of that margin.
print("\nbest-of-K metric vs the quantization bound (n=2, d=1)")
for K in (1, 4, 16, 64):
    best = [cell_metrics(generate_channels(rng, 1, 1000 * K)).reshape(3, 1000, K).min(axis=2)
            for _ in range(12)]
    bound = quantization_bound(K, 2)
    print(f"  K={K:3d}: measured {np.mean(best):.4f}  bound {bound:.4f}")

print("\nthe measured mean sits just under the bound and both shrink "
      "as K^(-1/(d(n-d)))")
