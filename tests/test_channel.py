"""Channel generation, selection metric, covariance, postfilter, rates."""

import math
import tracemalloc

import numpy as np
import pytest

from oiasim import (ChannelSet, DegenerateChannel, ShapeMismatch, cell_metrics,
                    closed_form_ia, feedback_mode, generate_channels, ia_link_rates,
                    interference_covariance, interferer_indices, make_config,
                    postfilter, quantized_channel_set, run_trial,
                    select_conventional, select_one_bit, served_links, user_rate)
from oiasim import channel, grassmann
from oiasim.grassmann import INV_SQRT2, complex_normal
from oiasim.harness import design_threshold, parse_k_rule


def _engineered(fill):
    """ChannelSet of one single-stream user per cell with every matrix set
    by fill(i, j, k)."""
    h = np.zeros((3, 3, 1, 2, 1), dtype=complex)
    for i in range(3):
        for j in range(3):
            h[i, j, 0] = fill(i, j, 0)
    return ChannelSet(h=h)


def _rate(links, P):
    """Rate of served links behind their postfilter, at power P."""
    return user_rate(links, postfilter(interference_covariance(links)), P)


def test_generate_channels_derives_antenna_counts():
    rng = np.random.default_rng(0)
    assert generate_channels(rng, d=2, K=1).h.shape == (3, 3, 1, 4, 2)
    assert generate_channels(rng, d=3, K=7).h.shape == (3, 3, 7, 6, 3)
    # nr = 2d and nt = d are not settings
    for extra in ({"nr": 4}, {"nt": 2}, {"cells": 3}):
        with pytest.raises(TypeError):
            generate_channels(rng, d=2, K=1, **extra)
    with pytest.raises(TypeError):
        ChannelSet(h=np.zeros((3, 3, 1, 4, 2), dtype=complex), d=2)


@pytest.mark.parametrize("d, K", [(0, 1), (1, 0)])
def test_generate_channels_refuses_empty_dimensions(d, K):
    with pytest.raises(ShapeMismatch):
        generate_channels(np.random.default_rng(0), d=d, K=K)


def test_generate_channels_refuses_mismatched_output():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeMismatch):
        generate_channels(rng, d=1, K=2, out=np.zeros((3, 3, 1, 2, 1), dtype=complex))
    # nothing was drawn
    assert rng.random() == np.random.default_rng(0).random()


def test_channel_set_shape_checked():
    for shape in ((3, 3, 0, 2, 1),      # K = 0
                  (3, 3, 1, 0, 0),      # d = 0
                  (3, 3, 1, 2, 2),      # nt != d for nr = 2
                  (3, 3, 1, 3, 1),      # nr != 2d
                  (3, 3, 2, 4, 1),      # nr = 4d
                  (2, 3, 1, 2, 1),      # two cells
                  (3, 3, 2, 1)):        # no user axis
        with pytest.raises(ShapeMismatch):
            ChannelSet(h=np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("P", [0.0, -1.0, float("nan"), float("inf")])
def test_user_rate_refuses_nonpositive_power(P):
    links = served_links(generate_channels(np.random.default_rng(1), d=1, K=1), 0, 0)
    U = postfilter(interference_covariance(links))
    with pytest.raises(ShapeMismatch):
        user_rate(links, U, P)


def test_interferer_indices():
    assert interferer_indices(0) == (1, 2)
    assert interferer_indices(1) == (2, 0)
    assert interferer_indices(2) == (0, 1)


def test_generate_channels_shape_and_determinism():
    ch = generate_channels(np.random.default_rng(42), d=1, K=1)
    assert ch.h.shape == (3, 3, 1, 2, 1)
    again = generate_channels(np.random.default_rng(42), d=1, K=1)
    assert np.array_equal(ch.h, again.h)


def _reference_draw(seed, shape):
    """(x + 1j*y)/np.sqrt(2) from one draw of each half, and the stream's
    next random() after it."""
    rng = np.random.default_rng(seed)
    ref = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return ref, rng.random()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("K", [1, 7, 1000, 5000])
def test_generate_channels_bit_identical_to_reference_draw(monkeypatch, K, d):
    # the blocked in-place fill must match one draw of each half bit for bit
    # and leave the stream at the same position: at the default block (K =
    # 5000 is several blocks with a remainder), with the block set one
    # below, at and one above the draw's size and to a third of it, and
    # into the strided per-trial slots of a multi-trial drop
    shape = (3, 3, K, 2 * d, d)
    n = math.prod(shape)
    for block in (grassmann._BLOCK_SIZE, n - 1, n, n + 1, n // 3 - 1):
        monkeypatch.setattr(grassmann, "_BLOCK_SIZE", max(block, 1))
        for seed in (0, 1, 12345, 2 ** 40 + 3):
            ref, after = _reference_draw(seed, shape)
            rng = np.random.default_rng(seed)
            ch = generate_channels(rng, d, K)
            assert ch.h.dtype == np.complex128
            assert np.array_equal(ch.h, ref)
            assert rng.random() == after
        drops = np.full((3, 3, 3 * K, 2 * d, d), np.nan, dtype=complex)
        for t in range(3):
            rng = np.random.default_rng(t)
            generate_channels(rng, d, K, out=drops[:, :, t * K:(t + 1) * K])
            ref, after = _reference_draw(t, shape)
            assert np.array_equal(drops[:, :, t * K:(t + 1) * K], ref)
            assert rng.random() == after


def test_generate_channels_unit_entry_variance():
    ch = generate_channels(np.random.default_rng(1), d=1, K=5556)
    power = np.abs(ch.h) ** 2
    assert power.size >= 10 ** 5
    assert 0.95 <= power.mean() <= 1.05


def user_metric(ch, i, k):
    """Scalar oracle of cell_metrics: d - ||Qp^H Qq||_F^2 for Householder
    QR bases Qp, Qq of user k's two interference channels in cell i."""
    p, q = interferer_indices(i)
    Qp = np.linalg.qr(ch.h[i, p, k])[0]
    Qq = np.linalg.qr(ch.h[i, q, k])[0]
    d = ch.h.shape[-1]
    return float(np.clip(d - np.linalg.norm(Qp.conj().T @ Qq) ** 2, 0.0, d))


def test_user_metric_identical_and_orthogonal_interference():
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    e2 = np.array([[0.0], [1.0]], dtype=complex)

    same = _engineered(lambda i, j, k: e1 + e2)
    assert user_metric(same, 0, 0) == pytest.approx(0.0, abs=1e-12)

    def orth(i, j, k):
        p, q = interferer_indices(i)
        return e1 if j == p else e2
    ch = _engineered(orth)
    assert user_metric(ch, 0, 0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_cell_metrics_matches_user_metric(d):
    ch = generate_channels(np.random.default_rng(100 + d), d, 40)
    batch = cell_metrics(ch)
    assert batch.shape == (3, 40)
    for i in range(3):
        single = np.array([user_metric(ch, i, k) for k in range(40)])
        np.testing.assert_allclose(batch[i], single, atol=1e-10)


@pytest.mark.parametrize("d", [1, 2])
def test_cell_metrics_layout_independent(d):
    ch = generate_channels(np.random.default_rng(200 + d), d, 25)
    fortran = ChannelSet(h=np.asfortranarray(ch.h))
    assert not fortran.h.flags.c_contiguous
    assert np.array_equal(cell_metrics(fortran), cell_metrics(ch))


@pytest.mark.filterwarnings("error")
def test_cell_metrics_zero_interference_column_d1():
    ch = generate_channels(np.random.default_rng(11), d=1, K=4)
    h = ch.h.copy()
    p, _ = interferer_indices(1)
    h[1, p, 2] = 0.0
    with pytest.raises(DegenerateChannel) as exc:
        cell_metrics(ChannelSet(h=h))
    assert np.argwhere(exc.value.where).tolist() == [[1, 2]]


def test_cell_metrics_empirical_distribution_d1():
    # d = 1 metric is uniform on [0, 1]
    ch = generate_channels(np.random.default_rng(7), d=1, K=10 ** 5)
    m = np.sort(cell_metrics(ch)[0])
    sup = np.max(np.abs(np.arange(1, m.size + 1) / m.size - m))
    assert sup < 0.01


def test_interference_covariance_examples():
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    e2 = np.array([[0.0], [1.0]], dtype=complex)

    zero = _engineered(lambda i, j, k: np.zeros((2, 1)))
    assert np.array_equal(interference_covariance(served_links(zero, 0, 0)),
                          np.zeros((2, 2)))

    def orth(i, j, k):
        p, q = interferer_indices(i)
        return e1 if j == p else e2
    ch = _engineered(orth)
    np.testing.assert_allclose(interference_covariance(served_links(ch, 0, 0)),
                               np.eye(2), atol=1e-12)

    rnd = generate_channels(np.random.default_rng(8), d=1, K=1)
    R = interference_covariance(served_links(rnd, 0, 0))
    assert np.linalg.norm(R - R.conj().T) < 1e-12


def test_postfilter_smallest_eigenvector():
    U = postfilter(np.diag([3.0, 1.0]).astype(complex))
    assert abs(abs(U[1, 0]) - 1.0) < 1e-12
    assert abs(U[0, 0]) < 1e-12


def test_postfilter_captures_null_space():
    # rank-d covariance: the filter must null the interference entirely
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    R = a @ a.conj().T
    U = postfilter(R)
    assert np.linalg.norm(U.conj().T @ R @ U) < 1e-9


def test_postfilter_diagonalizes_and_attains_smallest_eigenvalues():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    R = g @ g.conj().T
    U = postfilter(R)
    out = U.conj().T @ R @ U
    assert np.linalg.norm(out - np.diag(np.diag(out))) < 1e-9
    w = np.linalg.eigvalsh(R)
    assert abs(np.trace(out).real - w[:2].sum()) < 1e-9


def test_postfilter_optimal_among_random_filters():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    R = g @ g.conj().T
    best = np.trace(postfilter(R).conj().T @ R @ postfilter(R)).real
    for _ in range(100):
        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        U = np.linalg.qr(m)[0]
        assert np.trace(U.conj().T @ R @ U).real >= best - 1e-9


def test_user_rate_point_to_point_reduction():
    rng = np.random.default_rng(12)

    def only_direct(i, j, k):
        if i == j:
            return rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        return np.zeros((2, 1))
    ch = _engineered(only_direct)
    U = np.array([[1.0], [0.0]], dtype=complex)
    g = (U.conj().T @ ch.h[0, 0, 0])[0, 0]
    assert user_rate(served_links(ch, 0, 0), U, 5.0) == pytest.approx(np.log2(1 + 5.0 * abs(g) ** 2),
                                                   abs=1e-9)


def test_user_rate_vanishes_at_zero_power():
    ch = generate_channels(np.random.default_rng(13), d=1, K=1)
    links = served_links(ch, 0, 0)
    U = postfilter(interference_covariance(links))
    assert user_rate(links, U, 1e-9) < 1e-7


def test_user_rate_engineered_scalar_case():
    # U^H H_ii = U^H H_ip = U^H H_iq = 1 at P = 1:
    # rate = log2(1 + 1/(1 + 2)) = log2(4/3)
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    ch = _engineered(lambda i, j, k: e1)
    assert user_rate(served_links(ch, 0, 0), e1, 1.0) == pytest.approx(np.log2(4.0 / 3.0), abs=1e-9)


def test_user_rate_decomposition_identity():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        ch = generate_channels(rng, d=1, K=1)
        links = served_links(ch, 0, 0)
        U = postfilter(interference_covariance(links))
        # the docstring's rate log2 det(I + A (B + I)^{-1}) in one log-det
        G = [U.conj().T @ ch.h[0, j, 0] for j in range(3)]
        A = 10.0 * (G[0] @ G[0].conj().T)
        B = 10.0 * (G[1] @ G[1].conj().T + G[2] @ G[2].conj().T)
        eye = np.eye(1)
        direct = np.log2(np.linalg.det(eye + A @ np.linalg.inv(B + eye)).real)
        rate = user_rate(links, U, 10.0)
        assert rate == pytest.approx(direct, abs=1e-9)
        assert rate >= 0.0


def test_user_rate_loss_vanishes_with_aligned_interference():
    # nearly identical interference channels: metric < 1e-6, so the
    # postfilter nulls both, and the rate stays within 0.01 bits of the
    # interference-free log2 det(I + P U^H H_ii H_ii^H U) at P=100
    rng = np.random.default_rng(15)
    base = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))

    def fill(i, j, k):
        p, q = interferer_indices(i)
        if j == p:
            return base
        if j == q:
            return base * 1.7 + 1e-5 * np.array([[1.0], [0.0]])
        return rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    ch = _engineered(fill)
    assert user_metric(ch, 0, 0) < 1e-6
    links = served_links(ch, 0, 0)
    U = postfilter(interference_covariance(links))
    g = U.conj().T @ ch.h[0, 0, 0]
    free = np.log2(np.linalg.det(np.eye(1) + 100.0 * (g @ g.conj().T)).real)
    assert abs(user_rate(links, U, 100.0) - free) < 0.01


def test_user_rate_monotone_in_power():
    links = served_links(generate_channels(np.random.default_rng(16), d=1, K=1), 0, 0)
    rates = [_rate(links, P) for P in (1.0, 10.0, 100.0)]
    assert rates[0] <= rates[1] <= rates[2]


@pytest.mark.parametrize("fortran", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_cell_metrics_match_householder_qr(d, fortran):
    ch = generate_channels(np.random.default_rng(300 + d), d, 60)
    if fortran:
        ch = ChannelSet(h=np.asfortranarray(ch.h))
    m = cell_metrics(ch)
    for i in range(3):
        oracle = [user_metric(ch, i, k) for k in range(60)]
        np.testing.assert_allclose(m[i], oracle, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("link", [0, 1])
@pytest.mark.parametrize("d", [2, 3])
def test_cell_metrics_rank_deficient_column(d, link):
    ch = generate_channels(np.random.default_rng(400 + d), d, 9)
    h = ch.h.copy()
    j = interferer_indices(2)[link]
    h[2, j, 5, :, 1] = (0.3 - 1.7j) * h[2, j, 5, :, 0]
    with pytest.raises(DegenerateChannel) as exc:
        cell_metrics(ChannelSet(h=h))
    # the other cells do not see that link
    assert np.argwhere(exc.value.where).tolist() == [[2, 5]]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.filterwarnings("error")
def test_cell_metrics_degenerate_mask_marks_only_those_users(d):
    # a zero interference channel (d = 1) or a zero first column (d > 1),
    # and, for d > 1, a rank-deficient one: `where` marks just those users,
    # and their meaningless metrics raise no warning
    h = generate_channels(np.random.default_rng(450 + d), d, 12).h.copy()
    p, q = interferer_indices(0)
    h[0, p, 3, :, 0] = 0.0
    bad = [3]
    if d > 1:
        h[0, q, 8, :, 1] = (0.3 - 1.7j) * h[0, q, 8, :, 0]
        bad.append(8)
    with pytest.raises(DegenerateChannel) as exc:
        cell_metrics(ChannelSet(h=h))
    assert exc.value.where.shape == (3, 12)
    assert np.argwhere(exc.value.where).tolist() == [[0, k] for k in bad]


def _one_pass_metrics(ch, i):
    """cell_metrics of all users in one pass, as before the users were
    scored in blocks; the reference of the blocked kernel."""
    p, q = interferer_indices(i)
    d = ch.h.shape[-1]
    if d == 1:
        Hp = np.ascontiguousarray(ch.h[i, p]).reshape(-1, 2)
        Hq = np.ascontiguousarray(ch.h[i, q]).reshape(-1, 2)
        a, b = Hp.view(np.float64), Hq.view(np.float64)
        np_sq = np.einsum("kj,kj->k", a, a)
        nq_sq = np.einsum("kj,kj->k", b, b)
        s = np.einsum("kj,kj->k", Hp.conj(), Hq)
        m = 1.0 - (s.real * s.real + s.imag * s.imag) / (np_sq * nq_sq)
    else:
        X = np.ascontiguousarray(ch.h[i, [p, q]].transpose(3, 2, 0, 1))
        assert not channel._orthonormalize_columns(X).any()
        s = (X[:, None, :, 0].conj() * X[None, :, :, 1]).sum(axis=2)
        m = d - (s.real * s.real + s.imag * s.imag).sum(axis=(0, 1))
    return np.clip(m, 0.0, float(d))


def _users_per_block(d):
    return channel._BLOCK_SIZE // (2 * d * d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("block", [None, 64])
def test_cell_metrics_blocks_equal_one_pass_bit_for_bit(monkeypatch, block, d):
    # one block minus one, one block, one block plus one, and several
    # blocks with a remainder, at the default block and at 64 users
    if block is not None:
        monkeypatch.setattr(channel, "_BLOCK_SIZE", block * 2 * d * d)
    b = _users_per_block(d)
    for K in (b - 1, b, b + 1, 3 * b + 5):
        ch = generate_channels(np.random.default_rng(K + d), d, K)
        m = cell_metrics(ch)
        for i in range(3):
            assert np.array_equal(m[i], _one_pass_metrics(ch, i))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("planted", [((1, 70),), ((1, 70), (1, 190)),
                                     ((0, 5), (2, 130), (2, 196))])
def test_cell_metrics_degenerate_mask_gathered_over_blocks(monkeypatch, d, planted):
    # 197 users per cell in four blocks of at most 64: the (cell, user)
    # pairs planted in the first, second or last block, of one cell or of
    # two, are exactly those `where` marks
    monkeypatch.setattr(channel, "_BLOCK_SIZE", 64 * 2 * d * d)
    h = generate_channels(np.random.default_rng(460 + d), d, 197).h.copy()
    for i, k in planted:
        p, q = interferer_indices(i)
        if d == 1:
            h[i, q, k] = 0.0
        else:
            h[i, p, k, :, 1] = (0.3 - 1.7j) * h[i, p, k, :, 0]
    with pytest.raises(DegenerateChannel) as exc:
        cell_metrics(ChannelSet(h=h))
    assert exc.value.where.shape == (3, 197)
    assert np.argwhere(exc.value.where).tolist() == [list(ik) for ik in planted]


def _traced_peak(fn):
    """Peak of the memory traced while fn runs, and fn's result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_generate_channels_draws_through_a_small_buffer():
    # d = 1, K = 1e5: a 28.8 MB drop; one draw of each half would allocate
    # a 14.4 MB buffer beside it
    K = 10 ** 5
    out = np.empty((3, 3, K, 2, 1), dtype=complex)
    peak, _ = _traced_peak(lambda: generate_channels(np.random.default_rng(3), 1, K,
                                                     out=out))
    assert peak < 10 ** 6


@pytest.mark.parametrize("d", [1, 2])
def test_cell_metrics_working_set_does_not_grow_with_k(d):
    # beyond its (3, K) result, one call needs what one block of users
    # needs, at 3 and at 9 blocks per cell alike
    b = _users_per_block(d)
    extra = []
    for K in (3 * b, 9 * b):
        ch = generate_channels(np.random.default_rng(470 + d), d, K)
        peak, m = _traced_peak(lambda: cell_metrics(ch))
        extra.append(peak - m.nbytes)
    assert extra[1] <= 1.2 * extra[0]


@pytest.mark.parametrize("d", [1, 2])
def test_stacked_rate_path_equals_scalar_calls_bit_for_bit(d):
    rng = np.random.default_rng(500 + d)
    P = 10.0 ** 2.5
    ch = generate_channels(rng, d, 30)
    cells = rng.integers(3, size=21)
    users = rng.integers(30, size=21)
    links = served_links(ch, cells, users)
    R = interference_covariance(links)
    U = postfilter(R)
    rate = user_rate(links, U, P)
    assert links.shape == (21, 3, 2 * d, d)
    assert U.shape == (21, 2 * d, d)
    assert rate.shape == (21,)
    for n, (i, k) in enumerate(zip(cells.tolist(), users.tolist())):
        links1 = served_links(ch, i, k)
        # own transmitter first, then the interferers p and q
        for j, tx in enumerate((i, *interferer_indices(i))):
            assert np.array_equal(links1[j], ch.h[i, tx, k])
        R1 = interference_covariance(links1)
        U1 = postfilter(R1)
        assert np.array_equal(R[n], R1)
        assert np.array_equal(U[n], U1)
        assert rate[n] == user_rate(links1, U1, P)


def _haar_unitary(rng, shape, n):
    """Haar-distributed n x n unitaries of the given stack shape: the QR
    factor of a complex Gaussian matrix with the phases of R's diagonal
    moved into Q (Mezzadri 2007)."""
    q, r = np.linalg.qr(complex_normal(rng, (*shape, n, n), INV_SQRT2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


@pytest.mark.parametrize("d", [1, 2])
def test_rate_invariant_under_link_unitaries(d):
    # a served user's rate through its postfilter depends on its links
    # H_ij only up to a common receive unitary Q and one transmit unitary
    # V_j per link: Q H_ij V_j gives the same rate
    rng = np.random.default_rng(600 + d)
    links = served_links(generate_channels(rng, d, 20), np.arange(3)[:, None],
                         np.arange(20))
    Q = _haar_unitary(rng, links.shape[:-3], 2 * d)[..., None, :, :]
    V = _haar_unitary(rng, links.shape[:-2], d)
    rotated = Q @ links @ V
    # a receive matrix that is not unitary changes the rate
    skewed = np.diag(np.arange(1.0, 2 * d + 1)) @ rotated
    for P in (1.0, 10.0 ** 2.5):
        rate = _rate(links, P)
        np.testing.assert_allclose(_rate(rotated, P), rate, rtol=0.0, atol=1e-9)
        assert np.abs(_rate(skewed, P) - rate).max() > 1e-3


def _replay_trial(cfg, snr_db, t):
    """Replay run_trial(cfg, snr_db, t) with the public functions, one served
    user at a time, assuming no degenerate redraw: {(scheme, K): (row,
    served users)} in row order."""
    P = 10.0 ** (snr_db / 10.0)
    kind, payload = parse_k_rule(cfg.K_rule)
    ks = payload if kind == "fixed" else (
        math.ceil(10.0 ** (payload * snr_db / 10.0)),)
    rng = np.random.default_rng([cfg.seed, cfg.snr_db_grid.index(snr_db), t])
    ch = generate_channels(rng, cfg.d, max(ks))
    metrics = cell_metrics(ch)
    served = {}             # key -> [(cell, user, outage, eligible count)]
    for K in ks:
        for i in range(3):
            m = metrics[i][:K]
            if cfg.experiment == "fig2_sumrate_d1":
                served.setdefault(("oia_perfect", K), []).append(
                    (i, select_conventional(m), False, None))
            # the optimal design, numeric: the closed form at d = 1
            x = design_threshold("numeric", K, cfg.d)
            # one row: one trial, one prefix, one cell
            k, eligible = (int(a[0, 0, 0]) for a in
                           select_one_bit(m[None, None], (K,), (x,), (rng,)))
            served.setdefault(("oia_1bit", K), []).append(
                (i, k, eligible == 0, eligible))
    replay = {}
    for key, cells in served.items():
        rates = [_rate(served_links(ch, i, k), P) for i, k, _, _ in cells]
        eligible = [e for *_, e in cells]
        row = (sum(rates), sum(o for *_, o, _ in cells),
               np.nan if None in eligible else sum(eligible))
        replay[key] = (row, [k for _, k, _, _ in cells])
    ch2 = complex_normal(rng, (3, 3, 2, 2), INV_SQRT2)
    if cfg.experiment == "fig2_sumrate_d1":
        rates = ia_link_rates(ch2, *closed_form_ia(ch2), P)
        replay[("ia_closed_form", 1)] = ((sum(rates), 0, np.nan), [0, 0, 0])
    if cfg.experiment == "fig6_oia_vs_ia":
        for b in ks:
            sol = closed_form_ia(quantized_channel_set(ch2, b, feedback_mode(b), rng))
            rates = ia_link_rates(ch2, *sol, P)
            replay[("ia_individual", b)] = ((sum(rates), 0, np.nan), [0, 0, 0])
    return replay


@pytest.mark.parametrize("experiment, ks", [("fig5_sumrate_d2", (10, 50, 100)),
                                            ("fig2_sumrate_d1", (100,)),
                                            ("fig3_eligible_users", (100,)),
                                            ("fig6_oia_vs_ia", (10, 24, 40))])
def test_run_trial_records_match_per_user_oracle(experiment, ks):
    # every row equals, bit for bit, the sum in cell order of the per-user
    # rates of a one-user-at-a-time replay, with its outage and eligible counts
    cfg = make_config(experiment, {"K_rule": "fixed:" + ",".join(map(str, ks))}
                      if experiment in ("fig5_sumrate_d2", "fig6_oia_vs_ia") else {})
    for t in range(4):
        keys, rows, redraws = run_trial(cfg, 20.0, t)
        assert redraws == 0
        replay = _replay_trial(cfg, 20.0, t)
        assert keys == tuple(replay)
        expected = np.array([row for row, _ in replay.values()], dtype=float)
        assert np.array_equal(rows, expected, equal_nan=True)


def test_run_trial_single_user_rows_match_oracle():
    # K = 1: both schemes are forced onto user 0 of every cell
    cfg = make_config("fig2_sumrate_d1")
    for t in range(4):
        rows = run_trial(cfg, 0.0, t)[1]
        replay = _replay_trial(cfg, 0.0, t)
        assert [users for _, users in replay.values()] == [[0, 0, 0]] * 3
        assert np.array_equal(rows, [row for row, _ in replay.values()],
                              equal_nan=True)
