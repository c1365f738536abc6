"""Subspace geometry: bases, chordal distance, CDF model, distortion bound."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from oiasim import (ManifoldParams, ShapeMismatch, Subspace, ball_volume,
                    chordal_distance_sq, metric_cdf, orthonormal_basis,
                    quantization_bound, sample_uniform_subspace)
from oiasim.errors import DegenerateChannel

E1 = Subspace(np.array([[1.0], [0.0]]))
E2 = Subspace(np.array([[0.0], [1.0]]))


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ShapeMismatch):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        Subspace(np.array([[2.0], [0.0]]))


def test_orthonormal_basis_scaling_invariance():
    S = orthonormal_basis(np.array([[2.0], [0.0]]))
    assert chordal_distance_sq(S, E1) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(S.basis) == pytest.approx(1.0, abs=1e-12)


def test_orthonormal_basis_idempotent_on_orthonormal_input():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    S = orthonormal_basis(g)
    again = orthonormal_basis(S.basis)
    assert chordal_distance_sq(S, again) == pytest.approx(0.0, abs=1e-12)


def test_orthonormal_basis_gram_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        b = orthonormal_basis(g).basis
        assert np.linalg.norm(b.conj().T @ b - np.eye(2)) < 1e-10


def test_orthonormal_basis_rejects_rank_deficient():
    col = np.array([[1.0], [2.0], [3.0], [4.0]])
    with pytest.raises(DegenerateChannel):
        orthonormal_basis(np.hstack([col, 2.0 * col]))


def test_chordal_distance_identical_and_orthogonal():
    assert chordal_distance_sq(E1, E1) == 0.0
    assert chordal_distance_sq(E1, E2) == pytest.approx(1.0, abs=1e-12)


def test_chordal_distance_shape_mismatch():
    S4 = Subspace(np.eye(4, 1))
    with pytest.raises(ShapeMismatch):
        chordal_distance_sq(E1, S4)


@pytest.mark.parametrize("n,d", [(2, 1), (4, 2)])
def test_chordal_distance_two_form_equivalence(n, d):
    rng = np.random.default_rng(17)
    for _ in range(1000):
        A = sample_uniform_subspace(rng, n, d)
        B = sample_uniform_subspace(rng, n, d)
        proj = A.basis @ A.basis.conj().T - B.basis @ B.basis.conj().T
        other = 0.5 * np.linalg.norm(proj) ** 2
        assert abs(chordal_distance_sq(A, B) - other) < 1e-10


def test_chordal_distance_symmetry_range_and_unitary_invariance():
    rng = np.random.default_rng(18)
    for _ in range(100):
        A = sample_uniform_subspace(rng, 4, 2)
        B = sample_uniform_subspace(rng, 4, 2)
        d_ab = chordal_distance_sq(A, B)
        assert d_ab == pytest.approx(chordal_distance_sq(B, A), abs=1e-12)
        assert 0.0 <= d_ab <= 2.0 + 1e-10
        q = np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))[0]
        assert abs(chordal_distance_sq(A, Subspace(B.basis @ q)) - d_ab) < 1e-10


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


def test_sample_uniform_subspace_basic():
    rng = np.random.default_rng(19)
    a = sample_uniform_subspace(rng, 4, 2)
    b = sample_uniform_subspace(rng, 4, 2)
    assert np.linalg.norm(a.basis.conj().T @ a.basis - np.eye(2)) < 1e-10
    assert chordal_distance_sq(a, b) > 1e-6


def test_sample_uniform_subspace_matches_cdf_spot_values():
    # P(d_c^2 <= x) = F(x); binomial 4-sigma margins at 4000 samples
    rng = np.random.default_rng(23)
    p = ManifoldParams(2, 1)
    ref = sample_uniform_subspace(rng, 2, 1)
    n = 4000
    dists = np.array([chordal_distance_sq(ref, sample_uniform_subspace(rng, 2, 1))
                      for _ in range(n)])
    for x in (0.2, 0.5, 0.8):
        emp = float(np.mean(dists <= x))
        f = metric_cdf(x, p)
        assert abs(emp - f) < 4.0 * np.sqrt(f * (1 - f) / n)


def test_sample_uniform_subspace_bit_identical_to_reference_draw():
    # the in-place complex normal fill must reproduce the old expression and
    # leave the stream at the same position
    for seed in (0, 5, 12345):
        ref_rng = np.random.default_rng(seed)
        g = (ref_rng.standard_normal((4, 2))
             + 1j * ref_rng.standard_normal((4, 2))) / np.sqrt(2)
        ref = orthonormal_basis(g)
        rng = np.random.default_rng(seed)
        assert np.array_equal(sample_uniform_subspace(rng, 4, 2).basis, ref.basis)
        assert rng.random() == ref_rng.random()
