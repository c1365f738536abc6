"""The stream property the vectorized 1-bit selector rests on.

oia.select_one_bit makes all the random picks of one trial with one
Generator.integers call on an array of bounds, in place of one scalar call
per pick. That is only sound if the array call draws the same numbers as
the scalar calls in order and leaves the generator in the same state,
including the half of a 64-bit output that 32-bit bounded draws buffer.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_HIGHS = st.one_of(st.integers(1, 200), st.integers(1, 2 ** 40))


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(seed=st.integers(0, 2 ** 64 - 1),
                  highs=st.lists(_HIGHS, min_size=1, max_size=12),
                  warmup=st.integers(0, 3))
def test_array_bounds_draw_what_sequential_scalar_calls_draw(seed, highs, warmup):
    vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for g in (vector, scalar):
        for _ in range(warmup):         # an odd count leaves 32 bits buffered
            g.integers(7)
    assert vector.integers(np.array(highs)).tolist() == [
        int(scalar.integers(h)) for h in highs]
    assert vector.random() == scalar.random()
    assert vector.integers(7) == scalar.integers(7)
