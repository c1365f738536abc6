"""Subspace geometry: orthonormal bases, the squared chordal distance as
cell_metrics computes it, the CDF model and the distortion bound."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from oiasim import (ChannelSet, ManifoldParams, ShapeMismatch, ball_volume,
                    cell_metrics, generate_channels, interferer_indices,
                    metric_cdf, quantization_bound)
from oiasim import channel


def _orthonormal_basis(M):
    """Orthonormal basis of the column space of an (n, d) matrix, by the
    Gram-Schmidt kernel of cell_metrics, and whether M is rank deficient."""
    # a copy: column, entry, stack of one
    X = np.ascontiguousarray(np.array(M, dtype=complex).T[:, :, None])
    bad = channel._orthonormalize_columns(X)
    return X[:, :, 0].T, bool(bad[0])


def _projector_metrics(ch):
    """0.5 * ||Qp Qp^H - Qq Qq^H||_F^2 for every user of a drop, a (3, K)
    array, with Qp and Qq Householder QR bases of its two interference
    channels."""
    out = []
    for i in range(3):
        Pp, Pq = (Q @ Q.conj().swapaxes(1, 2) for Q in
                  (np.linalg.qr(ch.h[i, j])[0] for j in interferer_indices(i)))
        out.append(0.5 * np.linalg.norm(Pp - Pq, axis=(1, 2)) ** 2)
    return np.array(out)


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


@pytest.mark.parametrize("n,d", [(2, 1), (4, 2)])
def test_chordal_distance_two_form_equivalence(n, d):
    # cell_metrics' d - ||Qp^H Qq||_F^2 against the projector form, 1002 users
    ch = generate_channels(np.random.default_rng(17), d, 334)
    assert ch.h.shape[-2] == n
    assert np.max(np.abs(cell_metrics(ch) - _projector_metrics(ch))) < 1e-10


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
    assert ball_volume(2, 1) == pytest.approx(1.0, rel=1e-12)
    assert ball_volume(4, 2) == pytest.approx(0.5, rel=1e-12)
    assert ball_volume(4, 1) == pytest.approx(1.0, rel=1e-12)


def test_ball_volume_domain():
    with pytest.raises(ShapeMismatch):
        ball_volume(3, 2)
    with pytest.raises(ShapeMismatch):
        ball_volume(2, 0)


def test_manifold_params_constants():
    p = ManifoldParams(4, 2)
    assert p.c == pytest.approx(0.5, rel=1e-12)
    assert p.exponent == 4
    assert p.x_max == pytest.approx(2.0 ** 0.25, rel=1e-12)
    assert ManifoldParams(2, 1).x_max == pytest.approx(1.0, rel=1e-12)


def test_metric_cdf_values():
    assert metric_cdf(0.5, ManifoldParams(2, 1)) == pytest.approx(0.5)
    assert metric_cdf(2.0, ManifoldParams(2, 1)) == 1.0
    assert metric_cdf(0.5, ManifoldParams(4, 2)) == pytest.approx(0.03125)
    assert metric_cdf(-1.0, ManifoldParams(2, 1)) == 0.0


@pytest.mark.parametrize("n,d", [(2, 1), (4, 2), (4, 1)])
def test_metric_cdf_monotone_and_saturates(n, d):
    p = ManifoldParams(n, d)
    xs = np.linspace(0.0, p.x_max, 200)
    vals = [metric_cdf(x, p) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(metric_cdf(p.x_max, p) - 1.0) < 1e-12


def test_quantization_bound_values():
    assert quantization_bound(1, ManifoldParams(2, 1)) == pytest.approx(1.0)
    assert quantization_bound(100, ManifoldParams(2, 1)) == pytest.approx(0.01)
    with pytest.raises(ShapeMismatch):
        quantization_bound(0, ManifoldParams(2, 1))


def test_quantization_bound_rank_one_formula():
    # closed form Gamma(1/D)/D * (K c)^(-1/D) for G(4, 1)
    p = ManifoldParams(4, 1)
    K = 2 ** 12
    expected = np.exp(gammaln(1.0 / 3.0)) / 3.0 * (K * p.c) ** (-1.0 / 3.0)
    assert quantization_bound(K, p) == pytest.approx(expected, rel=1e-12)


def _ball_volume_gammaln(n, d):
    log_c = -gammaln(d * (n - d) + 1)
    for i in range(1, d + 1):
        log_c += gammaln(n - i + 1) - gammaln(d - i + 1)
    return float(np.exp(log_c))


def test_ball_volume_d1_is_the_gammaln_formula_bit_for_bit():
    # c_{n,1} = 1 is returned without scipy; the log-Gamma sum cancels to
    # exactly 0, so the formula gives the same bits
    for n in range(2, 65):
        assert ball_volume(n, 1) == 1.0 == _ball_volume_gammaln(n, 1)
    for n, d in ((4, 2), (6, 3), (8, 2), (16, 8)):
        assert ball_volume(n, d) == _ball_volume_gammaln(n, d)


def test_quantization_bound_matches_the_gammaln_formula():
    # math.lgamma(1/D) stands in for scipy's gammaln: it is up to 4 ulp
    # off for D <= 16, which moves the bound by at most about 1.1e-15
    # relative over codebooks of up to 2^20 codewords
    for D in range(1, 17):
        ulp = np.spacing(gammaln(1.0 / D))
        assert abs(math.lgamma(1.0 / D) - gammaln(1.0 / D)) <= 4 * ulp
        p = ManifoldParams(D + 1, 1)
        for K in 2 ** np.arange(21):
            ref = float(np.exp(gammaln(1.0 / D) - np.log(D) - np.log(K * p.c) / D))
            assert quantization_bound(int(K), p) == pytest.approx(ref, rel=1.5e-15, abs=0)


def test_quantization_bound_dominates_line_quantizer_mean():
    # d = 1, n = 2: the metric is uniform on [0, 1], so E[min over K] is
    # 1/(K+1) and the bound is 1/K; Monte Carlo with the pinned seed keeps
    # the K = 100 margin positive.
    rng = np.random.default_rng(20260814)
    p = ManifoldParams(2, 1)
    for K in (1, 10, 100):
        mins = rng.random((10 ** 4, K)).min(axis=1)
        assert mins.mean() <= quantization_bound(K, p)


def test_metric_matches_cdf_spot_values_d1():
    # P(d_c^2 <= x) = F(x); binomial 4-sigma margins at 4000 users
    p = ManifoldParams(2, 1)
    n = 4000
    dists = cell_metrics(generate_channels(np.random.default_rng(23), 1, n))[0]
    for x in (0.2, 0.5, 0.8):
        emp = float(np.mean(dists <= x))
        f = metric_cdf(x, p)
        assert abs(emp - f) < 4.0 * np.sqrt(f * (1 - f) / n)


def test_metric_d2_law_is_x4_over_2():
    # on G(4, 2) the metric's CDF is exactly x^4 / 2 on [0, 1]; binomial
    # 4-sigma margins at 3 x 20000 users
    p = ManifoldParams(4, 2)
    dists = cell_metrics(generate_channels(np.random.default_rng(29), 2, 20000)).ravel()
    n = dists.size
    for x in (0.25, 0.5, 0.75, 1.0):
        f = metric_cdf(x, p)
        assert f == pytest.approx(x ** 4 / 2, rel=1e-12)
        emp = float(np.mean(dists <= x))
        assert abs(emp - f) < 4.0 * np.sqrt(f * (1 - f) / n)
