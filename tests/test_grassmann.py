"""Subspace geometry: orthonormal bases, the squared chordal distance as
cell_metrics computes it, the CDF model and the distortion bound."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from oiasim import (MAX_D, ChannelSet, ShapeMismatch, ball_volume, cell_metrics,
                    generate_channels, interferer_indices, metric_cdf,
                    quantization_bound, support_edge)
from oiasim import channel


def _orthonormal_basis(M):
    """Orthonormal basis of the column space of an (n, d) matrix, by the
    Gram-Schmidt kernel of cell_metrics, and whether M is rank deficient."""
    # a copy: column, entry, stack of one
    X = np.ascontiguousarray(np.array(M, dtype=complex).T[:, :, None])
    bad = channel._orthonormalize_columns(X)
    return X[:, :, 0].T, bool(bad[0])


def test_orthonormal_basis_scaling_invariance():
    b, bad = _orthonormal_basis(np.array([[2.0], [0.0]]))
    assert not bad
    assert np.linalg.norm(b - np.array([[1.0], [0.0]])) == pytest.approx(0.0, abs=1e-12)


def test_orthonormal_basis_idempotent_on_orthonormal_input():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    b = _orthonormal_basis(g)[0]
    assert np.linalg.norm(_orthonormal_basis(b)[0] - b) == pytest.approx(0.0, abs=1e-12)


def test_orthonormal_basis_gram_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        b, bad = _orthonormal_basis(g)
        assert not bad
        assert np.linalg.norm(b.conj().T @ b - np.eye(2)) < 1e-10


def test_orthonormal_basis_rejects_rank_deficient():
    col = np.array([[1.0], [2.0], [3.0], [4.0]])
    assert _orthonormal_basis(np.hstack([col, 2.0 * col]))[1]


def test_chordal_distance_identical_and_orthogonal():
    # every user sees e1 from both interferers, except that user 1 of
    # cell 0 sees e2 from its second one
    h = np.zeros((3, 3, 2, 2, 1), dtype=complex)
    h[..., 0, 0] = 1.0
    h[0, interferer_indices(0)[1], 1] = [[0.0], [1.0]]
    m = cell_metrics(ChannelSet(h=h))
    assert np.all(m[:, 0] == 0.0) and np.all(m[1:] == 0.0)
    assert m[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_chordal_distance_symmetry_range_and_unitary_invariance():
    rng = np.random.default_rng(18)
    for d in (1, 2):
        ch = generate_channels(rng, d, 100)
        m = cell_metrics(ch)
        swapped = ch.h.copy()  # each cell's two interferers swapped
        for i in range(3):
            p, q = interferer_indices(i)
            swapped[i, p], swapped[i, q] = ch.h[i, q], ch.h[i, p]
        assert np.max(np.abs(cell_metrics(ChannelSet(h=swapped)) - m)) < 1e-12
        assert np.all((0.0 <= m) & (m <= d))
        # a different d-by-d unitary on the right of every channel
        g = rng.standard_normal((3, 3, 100, d, d)) + 1j * rng.standard_normal((3, 3, 100, d, d))
        rotated = ChannelSet(h=ch.h @ np.linalg.qr(g)[0])
        assert np.max(np.abs(cell_metrics(rotated) - m)) < 1e-10


def test_ball_volume_values():
    assert ball_volume(1) == pytest.approx(1.0, rel=1e-12)
    assert ball_volume(2) == pytest.approx(0.5, rel=1e-12)


def test_ball_volume_domain():
    for d in (0, -1):
        with pytest.raises(ShapeMismatch):
            ball_volume(d)


def test_support_edge_values():
    assert support_edge(2) == pytest.approx(2.0 ** 0.25, rel=1e-12)
    assert support_edge(1) == pytest.approx(1.0, rel=1e-12)


def test_metric_cdf_values():
    assert metric_cdf(0.5, 1) == pytest.approx(0.5)
    assert metric_cdf(2.0, 1) == 1.0
    assert metric_cdf(0.5, 2) == pytest.approx(0.03125)
    assert metric_cdf(-1.0, 1) == 0.0


# ids name the manifold G(2d, d) as n-d
@pytest.mark.parametrize("d", [1, 2], ids=["2-1", "4-2"])
def test_metric_cdf_monotone_and_saturates(d):
    xs = np.linspace(0.0, support_edge(d), 200)
    vals = [metric_cdf(x, d) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(metric_cdf(support_edge(d), d) - 1.0) < 1e-12


def test_quantization_bound_values():
    assert quantization_bound(1, 2) == pytest.approx(1.0)
    assert quantization_bound(100, 2) == pytest.approx(0.01)
    for K, n in ((0, 2), (-1, 4), (4, 1), (4, 0)):
        with pytest.raises(ShapeMismatch):
            quantization_bound(K, n)


def test_quantization_bound_rank_one_formula():
    # closed form Gamma(1/D)/D * K^(-1/D) for unit vectors of C^4, D = 3
    K = 2 ** 12
    expected = np.exp(gammaln(1.0 / 3.0)) / 3.0 * K ** (-1.0 / 3.0)
    assert quantization_bound(K, 4) == pytest.approx(expected, rel=1e-12)


def _ball_volume_gammaln(n, d):
    log_c = -gammaln(d * (n - d) + 1)
    for i in range(1, d + 1):
        log_c += gammaln(n - i + 1) - gammaln(d - i + 1)
    return float(np.exp(log_c))


def test_ball_volume_d1_is_the_gammaln_formula_bit_for_bit():
    # c_{2,1} = 1 is returned without scipy; the log-Gamma sum cancels to
    # exactly 0, so the formula gives the same bits
    assert ball_volume(1) == 1.0 == _ball_volume_gammaln(2, 1)
    for d in range(2, MAX_D + 1):
        assert ball_volume(d) == _ball_volume_gammaln(2 * d, d)


def test_max_d_is_the_last_d_with_a_nonzero_ball_volume():
    # the formula underflows to 0 one past MAX_D, which ball_volume refuses
    for d in range(1, MAX_D + 1):
        assert _ball_volume_gammaln(2 * d, d) > 0.0
        # the model's support lies inside the metric's range [0, d]
        assert support_edge(d) <= d
    assert _ball_volume_gammaln(2 * (MAX_D + 1), MAX_D + 1) == 0.0
    with pytest.raises(ShapeMismatch):
        ball_volume(MAX_D + 1)


def test_quantization_bound_matches_the_gammaln_formula():
    # math.lgamma(1/D) stands in for scipy's gammaln: it is up to 4 ulp
    # off for D <= 16, which moves the bound by at most about 1.1e-15
    # relative over codebooks of up to 2^20 codewords
    for D in range(1, 17):
        ulp = np.spacing(gammaln(1.0 / D))
        assert abs(math.lgamma(1.0 / D) - gammaln(1.0 / D)) <= 4 * ulp
        for K in 2 ** np.arange(21):
            ref = float(np.exp(gammaln(1.0 / D) - np.log(D) - np.log(float(K)) / D))
            assert quantization_bound(int(K), D + 1) == pytest.approx(ref, rel=1.5e-15, abs=0)


def test_metric_d2_law_is_x4_over_2():
    # on G(4, 2) the metric's CDF is exactly x^4 / 2 on [0, 1]; binomial
    # 4-sigma margins at 3 x 20000 users
    dists = cell_metrics(generate_channels(np.random.default_rng(29), 2, 20000)).ravel()
    n = dists.size
    for x in (0.25, 0.5, 0.75, 1.0):
        f = metric_cdf(x, 2)
        assert f == pytest.approx(x ** 4 / 2, rel=1e-12)
        emp = float(np.mean(dists <= x))
        assert abs(emp - f) < 4.0 * np.sqrt(f * (1 - f) / n)
