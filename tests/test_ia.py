"""Closed-form interference alignment and limited-feedback quantization."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from oiasim import (AggregatedChannel, CompositeCodebook, DegenerateChannel,
                    ManifoldParams, OddBitSplit, ShapeMismatch, Subspace,
                    aggregate_channel, chordal_distance_sq, closed_form_ia,
                    composite_distance, ia_limited_feedback_rate,
                    ia_link_rates, ia_sum_rate, perturb_quantization_model,
                    quantization_bound, quantize, quantize_individual,
                    quantized_channel_set)
from oiasim.channel import interferer_indices
from oiasim.ia import (_perturbation_distortion, product_codebook,
                       random_composite_codebook, random_unit_vectors)

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


def test_composite_codebook_validation():
    rng = np.random.default_rng(48)
    good = random_composite_codebook(2, 4, rng)
    assert len(good) == 4
    with pytest.raises(ShapeMismatch):
        CompositeCodebook(entries=good.entries, bits=3)
    with pytest.raises(ShapeMismatch):
        CompositeCodebook(entries=2.0 * good.entries, bits=2)
    with pytest.raises(ShapeMismatch):
        CompositeCodebook(entries=good.entries[:, 0, :], bits=2)
    with pytest.raises(ShapeMismatch):
        random_composite_codebook(0, 4, rng)


def test_quantize_recovers_exact_codeword():
    rng = np.random.default_rng(49)
    cb = random_composite_codebook(3, 4, rng)
    W = AggregatedChannel(w1=cb.entries[5, 0], w2=cb.entries[5, 1])
    idx, Wq = quantize(W, cb)
    assert idx == 5
    assert composite_distance(W, (Wq.w1, Wq.w2)) == pytest.approx(0.0, abs=1e-12)


def test_quantize_exhaustive_argmin():
    rng = np.random.default_rng(50)
    cb = random_composite_codebook(1, 4, rng)
    W = AggregatedChannel(w1=random_unit_vectors(1, 4, rng)[0],
                          w2=random_unit_vectors(1, 4, rng)[0])
    dists = [composite_distance(W, (cb.entries[k, 0], cb.entries[k, 1]))
             for k in range(len(cb))]
    idx, Wq = quantize(W, cb)
    assert idx == int(np.argmin(dists))
    assert composite_distance(W, (Wq.w1, Wq.w2)) == pytest.approx(min(dists),
                                                                  abs=1e-12)
    with pytest.raises(ShapeMismatch):
        quantize(AggregatedChannel(w1=np.array([1.0, 0.0]),
                                   w2=np.array([0.0, 1.0])), cb)


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


@pytest.mark.parametrize("bits_per_vector", [2, 4])
def test_quantize_individual_meets_component_bound(bits_per_vector):
    rng = np.random.default_rng(505 + bits_per_vector)
    total = []
    for _ in range(1000):
        ch = _draw(rng)
        W = aggregate_channel(ch, 0)
        Wq = quantize_individual(W, 2 * bits_per_vector, rng)
        total.append(composite_distance(W, (Wq.w1, Wq.w2)))
    bound = 2.0 * quantization_bound(2 ** bits_per_vector, P41)
    assert np.mean(total) <= bound


def test_quantize_individual_distortion_decreases_with_bits():
    rng = np.random.default_rng(509)
    m4, m12 = [], []
    for _ in range(1000):
        ch = _draw(rng)
        W = aggregate_channel(ch, 0)
        q4 = quantize_individual(W, 4, rng)
        q12 = quantize_individual(W, 12, rng)
        m4.append(composite_distance(W, (q4.w1, q4.w2)))
        m12.append(composite_distance(W, (q12.w1, q12.w2)))
    assert np.mean(m12) < np.mean(m4)


def test_quantize_individual_rejects_unsplittable_budgets():
    rng = np.random.default_rng(51)
    W = AggregatedChannel(w1=random_unit_vectors(1, 4, rng)[0],
                          w2=random_unit_vectors(1, 4, rng)[0])
    for bits in (3, 1, 0):
        with pytest.raises(OddBitSplit):
            quantize_individual(W, bits, rng)


def test_quantize_individual_matches_product_codebook():
    seed = 52
    rng = np.random.default_rng(seed)
    W = AggregatedChannel(w1=random_unit_vectors(1, 4, rng)[0],
                          w2=random_unit_vectors(1, 4, rng)[0])
    state = np.random.default_rng(seed + 1)
    Wq = quantize_individual(W, 4, state)
    # rebuild the two component codebooks from the same stream: w1's
    # codebook is drawn first
    state = np.random.default_rng(seed + 1)
    c1 = random_unit_vectors(4, 4, state)
    c2 = random_unit_vectors(4, 4, state)
    _, Wp = quantize(W, product_codebook(c1, c2))
    assert np.allclose(Wq.w1, Wp.w1, atol=1e-12)
    assert np.allclose(Wq.w2, Wp.w2, atol=1e-12)


def test_product_codebook_layout():
    rng = np.random.default_rng(53)
    c1 = random_unit_vectors(2, 4, rng)
    c2 = random_unit_vectors(4, 4, rng)
    cb = product_codebook(c1, c2)
    assert cb.bits == 3
    assert np.allclose(cb.entries[5, 0], c1[1])
    assert np.allclose(cb.entries[5, 1], c2[1])
    with pytest.raises(ShapeMismatch):
        product_codebook(c1[:1], c2[:3])


def test_perturbation_model_hits_exact_distortion():
    rng = np.random.default_rng(54)
    for B in (1, 4, 12):
        w = random_unit_vectors(1, 4, rng)[0]
        wq = perturb_quantization_model(w, B, rng)
        z = float(np.clip(quantization_bound(2 ** B, P41), 0.0, 1.0))
        assert np.linalg.norm(wq) == pytest.approx(1.0, abs=1e-12)
        assert 1.0 - abs(np.vdot(wq, w)) ** 2 == pytest.approx(z, abs=1e-10)
    w = random_unit_vectors(1, 4, rng)[0]
    wq = perturb_quantization_model(w, 150, rng)
    assert 1.0 - abs(np.vdot(wq, w)) ** 2 < 1e-12
    with pytest.raises(ShapeMismatch):
        perturb_quantization_model(w, 0, rng)


def test_perturbation_model_tracks_random_codebooks():
    # mean RVQ distortion within 30% of the statistical model across
    # feedback budgets
    for bits in (4, 8, 12):
        rng = np.random.default_rng(777)
        d_rvq, d_pert = [], []
        for _ in range(500):
            ch = _draw(rng)
            W = aggregate_channel(ch, 0)
            Wq = quantize_individual(W, bits, rng)
            d_rvq.append(composite_distance(W, (Wq.w1, Wq.w2)))
            p1 = perturb_quantization_model(W.w1, bits // 2, rng)
            p2 = perturb_quantization_model(W.w2, bits // 2, rng)
            d_pert.append(composite_distance(W, (p1, p2)))
        ratio = np.mean(d_rvq) / np.mean(d_pert)
        assert 0.7 <= ratio <= 1.3


def test_quantized_channel_set_modes():
    rng = np.random.default_rng(55)
    ch = _draw(rng)
    perfect = quantized_channel_set(ch, 10, "perfect", rng)
    for i in range(3):
        for j in range(3):
            assert np.allclose(perfect[i][j], ch[i][j], atol=0.0)
    q = quantized_channel_set(ch, 10, "rvq", np.random.default_rng(56))
    for i in range(3):
        assert np.allclose(q[i][i], ch[i][i], atol=0.0)
        for j in interferer_indices(i):
            assert np.linalg.norm(q[i][j]) == pytest.approx(
                np.linalg.norm(ch[i][j]), abs=1e-9)
            assert not np.allclose(q[i][j], ch[i][j])
    with pytest.raises(ShapeMismatch):
        quantized_channel_set(ch, 10, "vector", rng)
    with pytest.raises(OddBitSplit):
        quantized_channel_set(ch, 5, "rvq", rng)


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
