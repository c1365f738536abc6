"""
Designing the 1-bit feedback threshold
======================================

Each user compares its selection metric against a threshold x and
feeds back a single bit. This script shows the three threshold rules
(numeric minimization, Lambert-W closed form, large-K asymptotic) and
the operating quantities they imply: the expected number of eligible
users and the probability that no user is eligible.
"""

import numpy as np

from oiasim import (expected_eligible, lambert_w, min_expected_metric_d1,
                    optimal_threshold_d1, outage_probability,
                    threshold_asymptotic, threshold_lambert, threshold_numeric)

# 1. The Lambert W function drives the closed-form rule. Both real
#    branches are available; W_0 grows from the origin and W_{-1}
#    covers the interval (-1/e, 0).
print("lambert_w sanity: W_0(1) =", f"{lambert_w(0, 1.0):.12f}")
z = -0.1
for branch in (0, -1):
    w = lambert_w(branch, z)
    print(f"  branch {branch:2d}: w = {w:+.6f}, w*exp(w) = {w * np.exp(w):+.6f}")

# 2. Threshold rules for a 2-stream system (d=2, so n=4 receive
#    antennas) as the user population grows. Each rule and each operating
#    quantity takes K and d, with the metric on G(4, 2). The rules agree to
#    a few percent once K is in the hundreds, and every threshold shrinks
#    with K: more users make the scheduler pickier.
print("\nthresholds for n=4, d=2   (numeric / lambert / asymptotic)")
print(f"{'K':>6} {'numeric':>10} {'lambert':>10} {'asympt':>10} "
      f"{'E[eligible]':>12} {'P[outage]':>10}")
for K in (10, 100, 1000, 10000):
    xn = threshold_numeric(K, 2)
    xl = threshold_lambert(K, 2)
    xa = threshold_asymptotic(K, 2)
    print(f"{K:6d} {xn:10.5f} {xl:10.5f} {xa:10.5f} "
          f"{expected_eligible(xn, K, 2):12.3f} "
          f"{outage_probability(xn, K, 2):10.2e}")

# 3. For single-stream users (n=2, d=1) the optimum is available in
#    closed form, which the numeric design returns, and so is the metric
#    value it achieves (which needs at least two users to compete).
print("\nsingle-stream closed form vs numeric (n=2, d=1)")
print(f"{'K':>6} {'closed form':>12} {'numeric':>10} {'E[metric]':>12}")
for K in (2, 10, 100, 1000):
    xc = optimal_threshold_d1(K)
    xn = threshold_numeric(K, 1)
    print(f"{K:6d} {xc:12.6f} {xn:10.6f} "
          f"{min_expected_metric_d1(K):12.6f}")

print("\nthe achieved expected metric decays like log(K)/(2K): residual "
      "interference vanishes as the population grows")
