"""Closed-form interference alignment and limited-feedback quantization.

The stacked kernels in oiasim.ia are checked bit for bit against the
scalar one-drop, one-link code kept in ia_oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

import ia_oracle
from ia_oracle import (AggregatedChannel, aggregate_channel, composite_distance,
                       ia_limited_feedback_rate, ia_sum_rate,
                       perturb_quantization_model, random_unit_vectors)
from oiasim import (DegenerateChannel, ManifoldParams, OddBitSplit,
                    ShapeMismatch, Subspace, chordal_distance_sq,
                    closed_form_ia, ia_link_rates, make_config,
                    quantization_bound, quantized_channel_set, run_trial)
from oiasim import harness, ia
from oiasim.channel import interferer_indices
from oiasim.grassmann import INV_SQRT2, complex_normal
from oiasim.ia import _perturbation_distortion

P41 = ManifoldParams(4, 1)


def _draw(rng):
    return (rng.standard_normal((3, 3, 2, 2))
            + 1j * rng.standard_normal((3, 3, 2, 2))) / math.sqrt(2.0)


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def test_closed_form_ia_aligns_and_zero_forces():
    rng = np.random.default_rng(42)
    for _ in range(150):
        ch = _draw(rng)
        sol = closed_form_ia(ch)
        for i in range(3):
            p, q = interferer_indices(i)
            a = ch[i][p] @ sol.precoders[p]
            b = ch[i][q] @ sol.precoders[q]
            misalign = 1.0 - abs(np.vdot(a, b)) ** 2 / (
                np.linalg.norm(a) ** 2 * np.linalg.norm(b) ** 2)
            assert misalign < 1e-9
            u = sol.receive_filters[i]
            assert abs(np.vdot(u, a)) / np.linalg.norm(a) < 1e-8
            leak = abs(np.vdot(u, a)) ** 2 + abs(np.vdot(u, b)) ** 2
            assert leak / (np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2) < 1e-7


def test_closed_form_ia_eigenvector_and_phase():
    rng = np.random.default_rng(43)
    ch = _draw(rng)
    sol = closed_form_ia(ch)
    inv = np.linalg.inv
    E = (inv(ch[2][0]) @ ch[2][1] @ inv(ch[0][1]) @ ch[0][2]
         @ inv(ch[1][2]) @ ch[1][0])
    v1 = sol.precoders[0]
    lam = np.vdot(v1, E @ v1)
    assert np.linalg.norm(E @ v1 - lam * v1) < 1e-10
    assert abs(v1[0].imag) < 1e-10
    assert v1[0].real > 0.0


def test_closed_form_ia_rates_positive():
    rng = np.random.default_rng(44)
    ch = _draw(rng)
    sol = closed_form_ia(ch)
    rates = ia_link_rates(ch, sol, 100.0)
    assert len(rates) == 3
    assert all(r > 0.0 for r in rates)
    assert ia_sum_rate(ch, sol, 100.0) == pytest.approx(sum(rates), rel=1e-12)


@pytest.mark.parametrize("P", [-1.0, 0.0, float("inf"), float("nan")])
def test_ia_link_rates_refuse_power_not_finite_and_positive(P):
    # the rule user_rate keeps; these powers gave negative, zero or NaN rates
    ch = _draw(np.random.default_rng(44))
    with pytest.raises(ShapeMismatch):
        ia_link_rates(ch, closed_form_ia(ch), P)


def test_closed_form_ia_degenerate_cross_channel():
    rng = np.random.default_rng(45)
    ch = np.array(_draw(rng))
    ch[0][1] = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(DegenerateChannel):
        closed_form_ia(ch)


def test_aggregate_channel_vectorization():
    rng = np.random.default_rng(46)
    ch = np.array(_draw(rng))
    ch[0][1] = np.eye(2, dtype=complex)
    ch[0][2] = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    agg = aggregate_channel(ch, 0)
    assert np.allclose(agg.w1, np.array([1, 0, 0, 1]) / math.sqrt(2.0))
    # column-major vectorization stacks columns
    assert np.allclose(agg.w2, _unit([1.0, 3.0, 2.0, 4.0]))
    assert np.linalg.norm(agg.w1) == pytest.approx(1.0, abs=1e-12)
    scaled = aggregate_channel(5.0 * ch, 0)
    assert np.allclose(scaled.w1, agg.w1, atol=1e-12)
    assert np.allclose(scaled.w2, agg.w2, atol=1e-12)


def test_aggregated_channel_validation():
    with pytest.raises(ShapeMismatch):
        AggregatedChannel(w1=np.array([1.0, 1.0]), w2=np.array([1.0, 0.0]))
    with pytest.raises(ShapeMismatch):
        AggregatedChannel(w1=np.array([1.0, 0.0]), w2=np.array([1.0, 0.0, 0.0]))


def test_composite_distance_values():
    w1 = _unit([1.0, 1.0j, 0.0, 0.0])
    w2 = _unit([0.0, 0.0, 1.0, -1.0])
    W = AggregatedChannel(w1=w1, w2=w2)
    assert composite_distance(W, (w1, w2)) == pytest.approx(0.0, abs=1e-12)
    o1 = _unit([0.0, 0.0, 1.0, 1.0])
    o2 = _unit([1.0, 1.0j, 0.0, 0.0])
    assert composite_distance(W, (o1, o2)) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ShapeMismatch):
        composite_distance(W, (_unit([1.0, 0.0]), w2))


def test_composite_distance_is_sum_of_chordal_distances():
    rng = np.random.default_rng(47)
    W = AggregatedChannel(w1=random_unit_vectors(1, 4, rng)[0],
                          w2=random_unit_vectors(1, 4, rng)[0])
    c1 = random_unit_vectors(1, 4, rng)[0]
    c2 = random_unit_vectors(1, 4, rng)[0]
    expected = (chordal_distance_sq(Subspace(W.w1[:, None]), Subspace(c1[:, None]))
                + chordal_distance_sq(Subspace(W.w2[:, None]), Subspace(c2[:, None])))
    assert composite_distance(W, (c1, c2)) == pytest.approx(expected, abs=1e-12)


def _codebooks(bits, seed):
    """The six RVQ codebooks quantized_channel_set draws from
    default_rng(seed), in link order."""
    rng = np.random.default_rng(seed)
    return [random_unit_vectors(2 ** (bits // 2), 4, rng) for _ in range(6)]


def _links(ch):
    """(receiver, transmitter, unit column-major direction) of the six
    cross links, in quantization order."""
    out = []
    for i in range(3):
        agg = aggregate_channel(ch, i)
        out.extend(zip((i, i), interferer_indices(i), (agg.w1, agg.w2)))
    return out


def _cell_distortions(ch, q):
    """Composite distance between each receiver's true and quantized
    directions."""
    out = []
    for i in range(3):
        Wq = aggregate_channel(q, i)
        out.append(composite_distance(aggregate_channel(ch, i), (Wq.w1, Wq.w2)))
    return out


def test_quantize_recovers_exact_codeword():
    # a cross channel that lies on one of its codewords is quantized to it
    rng = np.random.default_rng(49)
    ch = _draw(rng)
    cbs = _codebooks(6, 50)
    picks = rng.integers(8, size=6)
    for (i, j, _), cb, k in zip(_links(ch), cbs, picks):
        ch[i, j] = 3.0 * cb[k].reshape((2, 2), order="F")
    q = quantized_channel_set(ch, 6, "rvq", np.random.default_rng(50))
    for (i, j, w), (_, _, wq) in zip(_links(ch), _links(q)):
        assert 1.0 - abs(np.vdot(wq, w)) ** 2 == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(q[i, j], ch[i, j], rtol=0.0, atol=1e-12)


def test_quantize_exhaustive_argmin():
    # each link's codeword minimizes the chordal distance over its codebook
    for seed in range(20):
        ch = _draw(np.random.default_rng(seed))
        cbs = _codebooks(8, seed + 100)
        q = quantized_channel_set(ch, 8, "rvq", np.random.default_rng(seed + 100))
        for (_, _, w), (_, _, wq), cb in zip(_links(ch), _links(q), cbs):
            dists = 1.0 - np.abs(cb.conj() @ w) ** 2
            best = cb[int(np.argmin(dists))]
            assert abs(abs(np.vdot(best, wq)) - 1.0) < 1e-12
            assert 1.0 - abs(np.vdot(wq, w)) ** 2 == pytest.approx(dists.min(),
                                                                  abs=1e-12)


def test_rank_one_quantization_exact_mean_below_bound():
    # E[min distortion over K random codewords] on lines in C^4 is
    # Gamma(1/3) Gamma(K+1) / (3 Gamma(K+4/3)), always under the bound
    # and asymptotically tight
    for B in range(1, 13):
        K = 2 ** B
        exact = math.exp(gammaln(1.0 / 3.0) - math.log(3.0)
                         + gammaln(K + 1.0) - gammaln(K + 4.0 / 3.0))
        bound = quantization_bound(K, P41)
        assert exact <= bound
    K = 2 ** 12
    exact = math.exp(gammaln(1.0 / 3.0) - math.log(3.0)
                     + gammaln(K + 1.0) - gammaln(K + 4.0 / 3.0))
    assert exact >= 0.97 * quantization_bound(K, P41)


def test_perturbation_distortion_of_fig6_budgets_matches_the_gammaln_formula():
    # every fig6 budget above the RVQ limit goes through the perturbation
    # model, whose distortion now takes log Gamma(1/3) from math.lgamma
    _, budgets = harness.parse_k_rule(make_config("fig6_oia_vs_ia").K_rule)
    budgets = [b for b in budgets if b > harness._RVQ_BIT_LIMIT]
    assert budgets
    for bits in budgets:
        K = 2 ** (bits // 2)
        ref = math.exp(gammaln(1.0 / 3.0) - np.log(3.0) - np.log(K * P41.c) / 3.0)
        assert _perturbation_distortion(bits // 2, 4) == pytest.approx(
            float(np.clip(ref, 0.0, 1.0)), rel=1e-15, abs=0)


@pytest.mark.parametrize("bits_per_vector", [2, 4])
def test_quantize_individual_meets_component_bound(bits_per_vector):
    rng = np.random.default_rng(505 + bits_per_vector)
    total = []
    for _ in range(1000):
        ch = _draw(rng)
        q = quantized_channel_set(ch, 2 * bits_per_vector, "rvq", rng)
        total.extend(_cell_distortions(ch, q))
    bound = 2.0 * quantization_bound(2 ** bits_per_vector, P41)
    assert np.mean(total) <= bound


def test_quantize_individual_distortion_decreases_with_bits():
    rng = np.random.default_rng(509)
    m4, m12 = [], []
    for _ in range(1000):
        ch = _draw(rng)
        m4.extend(_cell_distortions(ch, quantized_channel_set(ch, 4, "rvq", rng)))
        m12.extend(_cell_distortions(ch, quantized_channel_set(ch, 12, "rvq", rng)))
    assert np.mean(m12) < np.mean(m4)


def test_quantize_individual_rejects_unsplittable_budgets():
    rng = np.random.default_rng(51)
    ch = _draw(rng)
    for mode in ("rvq", "perturbation"):
        for bits in (3, 1, 0):
            with pytest.raises(OddBitSplit):
                quantized_channel_set(ch, bits, mode, rng)


@pytest.mark.parametrize("bits", [10, 16, 24, 28, 40])
def test_quantization_kernel_matches_per_link_oracle(bits):
    # same codewords (RVQ) or directions (perturbation), bit for bit, and
    # the same rng position afterwards as the per-link code
    mode = "rvq" if bits <= 24 else "perturbation"
    for seed in range(12):
        ch = _draw(np.random.default_rng(seed))
        rng, ref_rng = np.random.default_rng([seed, bits]), np.random.default_rng([seed, bits])
        q = quantized_channel_set(ch, bits, mode, rng)
        ref, indices = ia_oracle.quantized_channel_set(ch, bits, mode, ref_rng)
        assert len(indices) == (6 if mode == "rvq" else 0)
        assert np.array_equal(q, ref)
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("block, links", [
    (4 * 256, [4, 2]), (5 * 256 - 1, [4, 2]), (256, [1] * 6), (1, [1] * 6)])
def test_rvq_blocks_draw_the_per_link_stream(monkeypatch, block, links):
    # at 10 bits a link's codebook holds 2 * 32 * 4 = 256 normals; each
    # block of links gives the oracle's codewords and rng position
    monkeypatch.setattr(ia, "_DRAW_BLOCK", block)
    for seed in range(4):
        ch = _draw(np.random.default_rng(seed))
        rng, ref_rng = np.random.default_rng([seed, 10]), np.random.default_rng([seed, 10])
        drawn = []

        class RecordingDraw:
            def standard_normal(self, shape):
                drawn.append(shape[0])
                return rng.standard_normal(shape)

        q = quantized_channel_set(ch, 10, "rvq", RecordingDraw())
        ref, _ = ia_oracle.quantized_channel_set(ch, 10, "rvq", ref_rng)
        assert drawn == links
        assert np.array_equal(q, ref)
        assert rng.random() == ref_rng.random()


def test_rvq_at_24_bits_holds_one_link_codebook():
    # one link's 2 * 4096 * 4 normals are 256 KiB; all six links drawn at
    # once peaked at 2.6 MB
    ch = _draw(np.random.default_rng(60))
    rng = np.random.default_rng(61)
    tracemalloc.start()
    try:
        quantized_channel_set(ch, 24, "rvq", rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_perturbation_model_hits_exact_distortion():
    rng = np.random.default_rng(54)
    for B in (1, 4, 12):
        ch = _draw(rng)
        q = quantized_channel_set(ch, 2 * B, "perturbation", rng)
        z = float(np.clip(quantization_bound(2 ** B, P41), 0.0, 1.0))
        for (i, j, w), (_, _, wq) in zip(_links(ch), _links(q)):
            assert np.linalg.norm(q[i, j]) == pytest.approx(np.linalg.norm(ch[i, j]),
                                                            rel=1e-12)
            assert 1.0 - abs(np.vdot(wq, w)) ** 2 == pytest.approx(z, abs=1e-10)
    ch = _draw(rng)
    q = quantized_channel_set(ch, 300, "perturbation", rng)
    for (_, _, w), (_, _, wq) in zip(_links(ch), _links(q)):
        assert 1.0 - abs(np.vdot(wq, w)) ** 2 < 1e-12
    with pytest.raises(OddBitSplit):
        quantized_channel_set(ch, 0, "perturbation", rng)


def test_perturbation_model_tracks_random_codebooks():
    # mean RVQ distortion within 30% of the statistical model across
    # feedback budgets
    for bits in (4, 8, 12):
        rng = np.random.default_rng(777)
        d_rvq, d_pert = [], []
        for _ in range(500):
            ch = _draw(rng)
            d_rvq.extend(_cell_distortions(ch, quantized_channel_set(ch, bits, "rvq", rng)))
            d_pert.extend(_cell_distortions(
                ch, quantized_channel_set(ch, bits, "perturbation", rng)))
        ratio = np.mean(d_rvq) / np.mean(d_pert)
        assert 0.7 <= ratio <= 1.3


def test_quantized_channel_set_modes():
    rng = np.random.default_rng(55)
    ch = _draw(rng)
    q = quantized_channel_set(ch, 10, "rvq", np.random.default_rng(56))
    for i in range(3):
        assert np.allclose(q[i][i], ch[i][i], atol=0.0)
        for j in interferer_indices(i):
            assert np.linalg.norm(q[i][j]) == pytest.approx(
                np.linalg.norm(ch[i][j]), abs=1e-9)
            assert not np.allclose(q[i][j], ch[i][j])
    for mode in ("vector", "perfect"):
        with pytest.raises(ShapeMismatch):
            quantized_channel_set(ch, 10, mode, rng)
    with pytest.raises(OddBitSplit):
        quantized_channel_set(ch, 5, "rvq", rng)
    with pytest.raises(ShapeMismatch):
        quantized_channel_set(ch[:2], 10, "rvq", rng)


def test_limited_feedback_rate_perfect_mode_is_exact():
    rng = np.random.default_rng(57)
    ch = _draw(rng)
    direct = ia_sum_rate(ch, closed_form_ia(ch), 50.0)
    assert ia_limited_feedback_rate(ch, 10, "perfect", 50.0, rng) == pytest.approx(
        direct, abs=1e-9)


def test_limited_feedback_rate_improves_with_bits():
    rng = np.random.default_rng(901)
    gains = []
    for _ in range(300):
        ch = _draw(rng)
        r10 = ia_limited_feedback_rate(ch, 10, "perturbation", 100.0, rng)
        r40 = ia_limited_feedback_rate(ch, 40, "perturbation", 100.0, rng)
        gains.append(r40 - r10)
    assert np.mean(gains) > 0.0
    assert np.mean(gains) > 3.0 * np.std(gains, ddof=1) / math.sqrt(len(gains))


def test_limited_feedback_gap_grows_with_power():
    # fixed feedback cannot track growing SNR: the loss to perfect CSI
    # widens from P = 10 to P = 1000
    rng = np.random.default_rng(902)
    gap_lo, gap_hi = [], []
    for _ in range(300):
        ch = _draw(rng)
        sol = closed_form_ia(ch)
        for P, out in ((10.0, gap_lo), (1000.0, gap_hi)):
            perfect = ia_sum_rate(ch, sol, P)
            out.append(perfect
                       - ia_limited_feedback_rate(ch, 10, "perturbation", P, rng))
    assert np.mean(gap_hi) > np.mean(gap_lo)


def test_random_unit_vectors_bit_identical_to_reference_draw():
    # RVQ codebook of 2^12 words in C^4, the largest fig6 draws explicitly
    for seed in (0, 9, 12345):
        ref_rng = np.random.default_rng(seed)
        g = (ref_rng.standard_normal((4096, 4))
             + 1j * ref_rng.standard_normal((4096, 4)))
        ref = g / np.linalg.norm(g, axis=1, keepdims=True)
        rng = np.random.default_rng(seed)
        assert np.array_equal(random_unit_vectors(4096, 4, rng), ref)
        assert rng.random() == ref_rng.random()


def test_perturbation_model_bit_identical_to_reference_draw():
    w = _unit(np.arange(1, 5) + 1j * np.arange(4, 0, -1))
    for seed in (0, 9, 12345):
        ref_rng = np.random.default_rng(seed)
        z = float(np.clip(quantization_bound(2 ** 13, P41), 0.0, 1.0))
        g = ref_rng.standard_normal(4) + 1j * ref_rng.standard_normal(4)
        g -= w * np.vdot(w, g)
        e = g / np.linalg.norm(g)
        ref = np.sqrt(1.0 - z) * w + np.sqrt(z) * e
        rng = np.random.default_rng(seed)
        assert np.array_equal(perturb_quantization_model(w, 13, rng), ref)
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("bits, n", [(1, 4), (13, 4), (20, 4), (150, 4), (6, 8)])
def test_perturbation_distortion_cache_equals_direct_bound(bits, n):
    direct = float(np.clip(quantization_bound(2 ** bits, ManifoldParams(n, 1)),
                           0.0, 1.0))
    assert _perturbation_distortion(bits, n) == direct
    assert _perturbation_distortion(bits, n) == direct


def test_stacked_closed_form_ia_matches_scalar_oracle():
    # 600 solves (100 drops, each perfect and at five budgets) as one stack,
    # given C-ordered, Fortran-ordered and as nested lists: precoders,
    # filters and rates equal the one-drop oracle bit for bit
    rng = np.random.default_rng(2024)
    drops = complex_normal(rng, (100, 3, 3, 2, 2), INV_SQRT2)
    budgets = (10, 16, 24, 28, 40)
    stack = np.stack([[ch] + [quantized_channel_set(ch, b, "rvq" if b <= 24
                                                    else "perturbation", rng)
                              for b in budgets] for ch in drops])
    P = 10.0 ** 2.5
    ref = [[ia_oracle.closed_form_ia(q) for q in row] for row in stack]
    ref_rates = [[ia_oracle.ia_link_rates(ch, sol, P) for sol in row]
                 for ch, row in zip(drops, ref)]
    for form in (stack, np.asfortranarray(stack), stack.tolist()):
        sol = closed_form_ia(form)
        assert sol.precoders.shape == sol.receive_filters.shape == (100, 6, 3, 2)
        rates = ia_link_rates(drops[:, None], sol, P)
        assert np.array_equal(sol.precoders,
                              [[r.precoders for r in row] for row in ref])
        assert np.array_equal(sol.receive_filters,
                              [[r.receive_filters for r in row] for row in ref])
        assert np.array_equal(rates, ref_rates)


def test_closed_form_ia_flags_each_degenerate_drop():
    rng = np.random.default_rng(46)
    stack = complex_normal(rng, (5, 3, 3, 2, 2), INV_SQRT2)
    stack[1, 0, 1] = [[1.0, 2.0], [0.5, 1.0]]       # rank 1
    stack[3, 2, 0] = 0.0                            # 0/0 condition number
    stack[4, 1, 2, 0, 1] = np.nan
    for _ in range(2):
        with pytest.raises(DegenerateChannel) as info:
            closed_form_ia(stack)
        assert info.value.where.tolist() == [False, True, False, True, True]
    good = closed_form_ia(stack[[0, 2]])
    assert np.array_equal(good.precoders[1], closed_form_ia(stack[2]).precoders)


def test_vanishing_perturbation_direction_is_degenerate():
    # a drawn direction within 1e-13 of parallel to w leaves nothing to
    # perturb with: that link comes back NaN and the solve reports the drop
    # as degenerate
    ch = _draw(np.random.default_rng(47))
    w = aggregate_channel(ch, 1).w2             # link 3: receiver 1, transmitter 0
    c = 2.0 * w + 1e-13 * np.array([-np.conj(w[1]), np.conj(w[0]), 0.0, 0.0])

    class ParallelDraw:
        def standard_normal(self, shape):
            g = np.random.default_rng(48).standard_normal(shape)
            g[3, 0], g[3, 1] = c.real, c.imag
            return g

    q = quantized_channel_set(ch, 40, "perturbation", ParallelDraw())
    assert np.isnan(q[1, 0]).all()
    assert np.isfinite(np.delete(q.reshape(9, 4), 3, axis=0)).all()
    with pytest.raises(DegenerateChannel):
        closed_form_ia(q)


@pytest.mark.parametrize("zero_link", [False, True])
def test_fig6_trial_redraws_only_the_degenerate_budget(monkeypatch, zero_link):
    # the first quantization of the 16-bit budget comes back rank 1 (or all
    # zero): that budget alone is quantized again, after the others, and
    # counted; every other row is the undisturbed one
    cfg = make_config("fig6_oia_vs_ia", {"snr_db_grid": "20",
                                         "K_rule": "fixed:10,16,40"})
    clean = run_trial(cfg, 20.0, 0)
    real = harness.quantized_channel_set
    calls = []

    def spoiled(ch, bits, mode, rng):
        q = real(ch, bits, mode, rng)
        calls.append(bits)
        if bits == 16 and calls.count(16) % 2:       # the first of each trial
            q[2, 0] = 0.0 if zero_link else [[1.0, 1.0], [2.0, 2.0]]
        return q

    monkeypatch.setattr(harness, "quantized_channel_set", spoiled)
    runs = [run_trial(cfg, 20.0, 0) for _ in range(2)]
    assert calls == [10, 16, 40, 16] * 2
    for out in runs:
        assert out.redraws == clean.redraws + 1
        assert out.keys == clean.keys
        redrawn = out.keys.index(("ia_individual", 16))
        keep = [n for n in range(len(out.keys)) if n != redrawn]
        assert np.array_equal(out.rows[keep], clean.rows[keep], equal_nan=True)
        assert out.rows[redrawn, 0] != clean.rows[redrawn, 0]
    assert np.array_equal(runs[0].rows, runs[1].rows, equal_nan=True)


def test_fig6_trial_gives_up_on_a_budget_that_stays_degenerate(monkeypatch):
    cfg = make_config("fig6_oia_vs_ia", {"snr_db_grid": "20", "K_rule": "fixed:10,16"})
    real = harness.quantized_channel_set
    calls = []

    def always_rank_one(ch, bits, mode, rng):
        q = real(ch, bits, mode, rng)
        calls.append(bits)
        if bits == 16:
            q[0, 1] = [[1.0, 1.0], [1.0, 1.0]]
        return q

    monkeypatch.setattr(harness, "quantized_channel_set", always_rank_one)
    monkeypatch.setattr(harness, "_MAX_REDRAWS", 5)
    with pytest.raises(DegenerateChannel):
        run_trial(cfg, 20.0, 0)
    assert calls == [10] + [16] * 6
