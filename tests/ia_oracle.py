"""Scalar reference implementation of the IA baseline, for tests only.

One 2x2 matrix, one 4-vector and one receiver at a time: closed-form IA,
its link rates, and per-link quantization against an explicit random
codebook or through the perturbation model, each drawn from the rng in
the order the stacked kernels in oiasim.ia must reproduce. Also the
one-drop sum rates of the stacked kernels that only tests use, and the
einsum codeword score that the RVQ kernel's score must agree with.
"""

from dataclasses import dataclass

import numpy as np

from oiasim import ia as kernels
from oiasim.channel import interferer_indices
from oiasim.errors import DegenerateChannel, OddBitSplit, ShapeMismatch
from oiasim.grassmann import complex_normal, quantization_bound


def _norm(x):
    """The IA kernels' norm: a numpy reduction along the last axis."""
    return np.linalg.norm(x, axis=-1)


def _inner(a, b):
    """The IA kernels' inner product a^H b."""
    return (np.conj(a) * b).sum(axis=-1)


def _gain(a, b):
    """|a^H b|^2 as the IA kernels square a complex number."""
    g = _inner(a, b)
    return g.real * g.real + g.imag * g.imag


def _as_unit_vector(w) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if w.ndim != 1:
        raise ShapeMismatch(f"expected a vector, got shape {w.shape}")
    if abs(np.linalg.norm(w) - 1.0) > 1e-12:
        raise ShapeMismatch("vector is not unit norm")
    return w


@dataclass(frozen=True)
class AggregatedChannel:
    """The two cross-channel directions one receiver feeds back: the
    column-major vectorized channels from its first and second interferer,
    normalized to unit length."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w1", _as_unit_vector(self.w1))
        object.__setattr__(self, "w2", _as_unit_vector(self.w2))
        if self.w1.shape != self.w2.shape:
            raise ShapeMismatch("w1 and w2 must have the same length")


def _cross_matrix(ch, i, j):
    m = np.asarray(ch[i][j], dtype=complex)
    if np.linalg.cond(m) >= 1e12:
        raise DegenerateChannel(f"cross channel H[{i}][{j}] is ill-conditioned")
    return m


def _phase_normalize(v):
    nz = np.flatnonzero(np.abs(v) > 0.0)
    if nz.size:
        v = v * (np.abs(v[nz[0]]) / v[nz[0]])
    return v


def closed_form_ia(ch) -> tuple:
    """Closed-form IA of one drop, one 2x2 matrix at a time: the pair
    (precoders, filters), each a tuple of three unit vectors."""
    H = [[_cross_matrix(ch, i, j) if i != j else np.asarray(ch[i][j], dtype=complex)
          for j in range(3)] for i in range(3)]
    inv = np.linalg.inv
    E = inv(H[2][0]) @ H[2][1] @ inv(H[0][1]) @ H[0][2] @ inv(H[1][2]) @ H[1][0]
    eigvals, eigvecs = np.linalg.eig(E)
    v1 = eigvecs[:, int(np.argmax(np.abs(eigvals)))]
    v1 = _phase_normalize(v1 / _norm(v1))
    v2 = inv(H[2][1]) @ H[2][0] @ v1
    v2 /= _norm(v2)
    v3 = inv(H[1][2]) @ H[1][0] @ v1
    v3 /= _norm(v3)
    v = (v1, v2, v3)
    u = []
    for i in range(3):
        p, _ = interferer_indices(i)
        a = H[i][p] @ v[p]
        norm = _norm(a)
        if norm == 0.0:
            raise DegenerateChannel("aligned interference vanished")
        u.append(np.array([-np.conj(a[1]), np.conj(a[0])]) / norm)
    return (tuple(_as_unit_vector(x) for x in v),
            tuple(_as_unit_vector(x) for x in u))


def ia_link_rates(ch, precoders, filters, P: float) -> list:
    """Per-receiver rates of one drop's IA solution, one receiver at a
    time, in the determinant form of oiasim.channel.user_rate:
    log2 det(1 + A + B) - log2 det(1 + B) with A = P |u^H H_ii v_i|^2 and
    B = P sum_{j != i} |u^H H_ij v_j|^2 as 1x1 matrices."""
    rates = []
    for i in range(3):
        uh = np.conj(filters[i])[None, :]
        g = [uh @ (np.asarray(ch[i][j]) @ precoders[j][:, None])
             for j in (i, *interferer_indices(i))]
        A = P * (g[0] @ np.conj(g[0]))
        B = P * (g[1] @ np.conj(g[1]) + g[2] @ np.conj(g[2]))
        eye = np.eye(1)
        gain = np.linalg.slogdet(eye + A + B)[1] / np.log(2.0)
        loss = np.linalg.slogdet(eye + B)[1] / np.log(2.0)
        rates.append(float(gain - loss))
    return rates


def ia_link_rates_sinr(ch, precoders, filters, P: float) -> list:
    """Per-receiver rates of one drop's IA solution in the SINR form,
    log2(1 + P|u^H H_ii v_i|^2 / (1 + P sum_{j != i} |u^H H_ij v_j|^2)),
    one link at a time: the same rate as ia_link_rates up to rounding."""
    rates = []
    for i in range(3):
        p, q = interferer_indices(i)
        u, v = filters[i], precoders
        signal = P * _gain(u, ch[i][i] @ v[i])
        leak = P * (_gain(u, ch[i][p] @ v[p]) + _gain(u, ch[i][q] @ v[q]))
        rates.append(float(np.log2(1.0 + signal / (1.0 + leak))))
    return rates


def aggregate_channel(ch, i: int) -> AggregatedChannel:
    """Receiver i's two cross channels, column-major vectorized and
    normalized; w1 from interferer i+1 mod 3, w2 from i+2 mod 3."""
    vecs = []
    for j in interferer_indices(i):
        w = np.asarray(ch[i][j], dtype=complex).flatten(order="F")
        norm = _norm(w)
        if norm == 0.0:
            raise DegenerateChannel(f"cross channel H[{i}][{j}] is zero")
        vecs.append(w / norm)
    return AggregatedChannel(w1=vecs[0], w2=vecs[1])


def composite_distance(W: AggregatedChannel, codeword) -> float:
    """Sum of the two squared chordal distances between W and a pair of
    unit vectors."""
    c1, c2 = codeword[0], codeword[1]
    if np.shape(c1) != W.w1.shape or np.shape(c2) != W.w2.shape:
        raise ShapeMismatch("codeword length does not match the channel vectors")
    d1 = 1.0 - abs(np.vdot(c1, W.w1)) ** 2
    d2 = 1.0 - abs(np.vdot(c2, W.w2)) ** 2
    return float(np.clip(d1, 0.0, 1.0) + np.clip(d2, 0.0, 1.0))


def random_unit_vectors(n_words: int, length: int, rng) -> np.ndarray:
    """n_words i.i.d. uniform directions on the unit sphere in C^length."""
    g = complex_normal(rng, (n_words, length))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def quantize_individual(W: AggregatedChannel, bits: int, rng):
    """Quantize w1, then w2, each against its own fresh codebook of
    2^(bits/2) random unit vectors; returns the two codeword indices and
    the quantized pair."""
    if bits < 2 or bits % 2:
        raise OddBitSplit(f"total bits {bits} cannot be split equally over two vectors")
    half = 2 ** (bits // 2)
    index, out = [], []
    for w in (W.w1, W.w2):
        cb = random_unit_vectors(half, w.shape[0], rng)
        d = 1.0 - np.abs(cb.conj() @ w) ** 2
        index.append(int(np.argmin(d)))
        out.append(cb[index[-1]])
    return tuple(index), AggregatedChannel(w1=out[0], w2=out[1])


def rvq_pick_einsum(g, w) -> np.ndarray:
    """Index, for each link l, of the codeword c = g[l, 0, k] + 1j g[l, 1, k]
    maximizing |c^H w[l]|^2 / |c|^2 (the first on ties), both squared norms
    as einsum reductions: the reference for oiasim.ia._rvq's score."""
    re, im = g[:, 0], g[:, 1]
    proj = re @ np.stack([w.real, w.imag], axis=-1)
    proj += im @ np.stack([w.imag, -w.real], axis=-1)
    score = np.einsum("lnc,lnc->ln", proj, proj) / np.einsum("lcnk,lcnk->ln", g, g)
    return np.argmax(score, axis=1)


def perturb_quantization_model(w, bits_per_vector: int, rng) -> np.ndarray:
    """sqrt(1-z) w + sqrt(z) e, e uniform on the unit sphere orthogonal to
    w and z the clipped rank-1 distortion bound for 2^bits_per_vector
    codewords."""
    if bits_per_vector < 1:
        raise ShapeMismatch("bits_per_vector must be at least 1")
    w = _as_unit_vector(w)
    z = float(np.clip(quantization_bound(2**bits_per_vector, w.shape[0]), 0.0, 1.0))
    while True:
        g = complex_normal(rng, w.shape[0])
        g -= w * _inner(w, g)
        norm = _norm(g)
        if norm > 1e-12:
            break
    return np.sqrt(1.0 - z) * w + np.sqrt(z) * (g / norm)


def quantized_channel_set(ch, bits_total: int, mode: str, rng):
    """Quantized cross channels of one drop, one receiver at a time,
    rescaled to the true Frobenius norms; also returns the RVQ codeword
    indices, (cell, link) in draw order (empty for the perturbation
    model)."""
    quantized = [[np.asarray(ch[i][j], dtype=complex) for j in range(3)]
                 for i in range(3)]
    indices = []
    for i in range(3):
        agg = aggregate_channel(ch, i)
        if mode == "rvq":
            index, agg_q = quantize_individual(agg, bits_total, rng)
            indices.extend(index)
            directions = (agg_q.w1, agg_q.w2)
        else:
            half_bits = bits_total // 2
            directions = (perturb_quantization_model(agg.w1, half_bits, rng),
                          perturb_quantization_model(agg.w2, half_bits, rng))
        for j, wq in zip(interferer_indices(i), directions):
            scale = _norm(quantized[i][j].ravel())
            quantized[i][j] = (wq * scale).reshape((2, 2), order="F")
    return np.array(quantized), tuple(indices)


def ia_sum_rate(ch, precoders, filters, P: float):
    """Sum over the three receivers of the stacked oiasim.ia.ia_link_rates."""
    return kernels.ia_link_rates(ch, precoders, filters, P).sum(axis=-1)


def ia_limited_feedback_rate(ch, bits_total: int, mode: str, P: float, rng) -> float:
    """Sum rate of IA computed by the stacked kernels from the quantized
    cross channels of one drop and evaluated on the true ones, so that
    misalignment shows up as residual interference. mode is "rvq" or
    "perturbation", as in oiasim.ia.quantized_channel_set, or "perfect"
    (no quantization)."""
    quantized = (np.array(ch, dtype=complex) if mode == "perfect"
                 else kernels.quantized_channel_set(ch, bits_total, mode, rng))
    return float(ia_sum_rate(ch, *kernels.closed_form_ia(quantized), P))
