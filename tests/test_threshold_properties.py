"""Threshold monotonicity in K: more users make the scheduler pickier, so
no design raises its threshold when K grows.

Below K = 3 the Lambert and asymptotic forms do rise (d = 1: 0.347 at
K = 2, 0.366 at K = 3), so the property starts at K = 3; the exact d = 1
closed form falls from K = 1.
"""

import pytest

from oiasim import TooFewUsers, design_threshold

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.mark.parametrize("d, method", [(1, "closed_form_d1")] + [
    (d, method) for d in (1, 2, 3) for method in ("lambert", "asymptotic", "numeric")])
@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(data=st.data())
def test_threshold_does_not_rise_with_K(d, method, data):
    low = 1 if method == "closed_form_d1" else 3
    K1, K2 = sorted(data.draw(st.lists(st.integers(low, 10 ** 5), min_size=2,
                                       max_size=2, unique=True)))
    try:
        x1, x2 = (design_threshold(method, K, d) for K in (K1, K2))
    except TooFewUsers:
        hypothesis.assume(False)
    assert x2 <= x1, (K1, K2, x1, x2)
