"""Interference-alignment baseline for the 3-user 2x2 channel.

Closed-form IA with one stream per user: the first precoder is an
eigenvector of the composite map E = H31^-1 H32 H12^-1 H13 H23^-1 H21,
the other two follow by alignment, and each receive filter is the unit
vector orthogonal to the (aligned) interference direction.

Limited feedback quantizes the two vectorized, unit-normalized cross
channels of each receiver, either against explicit random codebooks or
through a statistical perturbation model whose squared chordal error
equals the random-codebook distortion bound. IA is then computed from
the de-vectorized quantized channels and evaluated on the true ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import interferer_indices
from .errors import DegenerateChannel, OddBitSplit, ShapeMismatch
from .grassmann import ManifoldParams, complex_normal, quantization_bound

_COND_LIMIT = 1e12
_UNIT_ATOL = 1e-12


def _as_unit_vector(w) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if w.ndim != 1:
        raise ShapeMismatch(f"expected a vector, got shape {w.shape}")
    if abs(np.linalg.norm(w) - 1.0) > _UNIT_ATOL:
        raise ShapeMismatch("vector is not unit norm")
    return w


@dataclass(frozen=True)
class AggregatedChannel:
    """The two cross-channel directions one receiver feeds back.

    w1 and w2 are the column-major vectorized interference channels
    from the first and second interferer, normalized to unit length.
    """

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w1", _as_unit_vector(self.w1))
        object.__setattr__(self, "w2", _as_unit_vector(self.w2))
        if self.w1.shape != self.w2.shape:
            raise ShapeMismatch("w1 and w2 must have the same length")


@dataclass(frozen=True)
class CompositeCodebook:
    """2^bits codewords, each a pair of unit vectors of equal length."""

    entries: np.ndarray
    bits: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 3 or entries.shape[1] != 2:
            raise ShapeMismatch("entries must have shape (size, 2, length)")
        if entries.shape[0] != 2**self.bits:
            raise ShapeMismatch(
                f"codebook has {entries.shape[0]} entries, expected 2^{self.bits}")
        norms = np.linalg.norm(entries, axis=2)
        if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-10):
            raise ShapeMismatch("codewords must be unit norm")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class IaSolution:
    """Unit precoders v_j and receive filters u_i for the three pairs."""

    precoders: tuple
    receive_filters: tuple

    def __post_init__(self):
        v = tuple(_as_unit_vector(x) for x in self.precoders)
        u = tuple(_as_unit_vector(x) for x in self.receive_filters)
        if len(v) != 3 or len(u) != 3:
            raise ShapeMismatch("need exactly three precoders and filters")
        object.__setattr__(self, "precoders", v)
        object.__setattr__(self, "receive_filters", u)


def _cross_matrix(ch: np.ndarray, i: int, j: int) -> np.ndarray:
    m = np.asarray(ch[i][j], dtype=complex)
    if m.shape != (2, 2):
        raise ShapeMismatch(f"H[{i}][{j}] has shape {m.shape}, expected (2, 2)")
    if np.linalg.cond(m) >= _COND_LIMIT:
        raise DegenerateChannel(f"cross channel H[{i}][{j}] is ill-conditioned")
    return m


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 0.0)
    if nz.size:
        v = v * (np.abs(v[nz[0]]) / v[nz[0]])
    return v


def closed_form_ia(ch) -> IaSolution:
    """Closed-form IA solution for a 3-user 2x2 single-stream drop.

    ch indexes receiver then transmitter, ch[i][j] of shape (2, 2).
    v1 is the eigenvector of E = H31^-1 H32 H12^-1 H13 H23^-1 H21 with
    the largest-magnitude eigenvalue, phase-normalized so its first
    nonzero entry is real positive; v2 and v3 align the interference
    seen at receivers 3 and 2 with it. u_i is orthogonal to the aligned
    interference at receiver i.

    Raises DegenerateChannel when any cross matrix has condition
    number >= 1e12; callers redraw the channel.
    """
    H = [[_cross_matrix(ch, i, j) if i != j else np.asarray(ch[i][j], dtype=complex)
          for j in range(3)] for i in range(3)]
    inv = np.linalg.inv
    E = inv(H[2][0]) @ H[2][1] @ inv(H[0][1]) @ H[0][2] @ inv(H[1][2]) @ H[1][0]
    eigvals, eigvecs = np.linalg.eig(E)
    v1 = eigvecs[:, int(np.argmax(np.abs(eigvals)))]
    v1 = _phase_normalize(v1 / np.linalg.norm(v1))
    v2 = inv(H[2][1]) @ H[2][0] @ v1
    v2 /= np.linalg.norm(v2)
    v3 = inv(H[1][2]) @ H[1][0] @ v1
    v3 /= np.linalg.norm(v3)
    v = (v1, v2, v3)

    u = []
    for i in range(3):
        p, _ = interferer_indices(i)
        a = H[i][p] @ v[p]
        norm = np.linalg.norm(a)
        if norm == 0.0:
            raise DegenerateChannel("aligned interference vanished")
        u.append(np.array([-np.conj(a[1]), np.conj(a[0])]) / norm)
    return IaSolution(precoders=v, receive_filters=tuple(u))


def ia_link_rates(ch, sol: IaSolution, P: float) -> list:
    """Per-receiver rates of a single-stream IA solution on channels ch.

    Treats residual interference as noise: receiver i gets
    log2(1 + P|u^H H_ii v_i|^2 / (1 + P sum_{j != i} |u^H H_ij v_j|^2)).
    """
    rates = []
    for i in range(3):
        p, q = interferer_indices(i)
        u = sol.receive_filters[i]
        signal = P * abs(np.vdot(u, ch[i][i] @ sol.precoders[i])) ** 2
        leak = P * (abs(np.vdot(u, ch[i][p] @ sol.precoders[p])) ** 2
                    + abs(np.vdot(u, ch[i][q] @ sol.precoders[q])) ** 2)
        rates.append(float(np.log2(1.0 + signal / (1.0 + leak))))
    return rates


def ia_sum_rate(ch, sol: IaSolution, P: float) -> float:
    """Sum over the three receivers of ia_link_rates."""
    return float(sum(ia_link_rates(ch, sol, P)))


def aggregate_channel(ch, i: int) -> AggregatedChannel:
    """Vectorize and normalize receiver i's two cross channels.

    Column-major vectorization; w1 comes from the first interferer
    (i+1 mod 3) and w2 from the second (i+2 mod 3).
    """
    p, q = interferer_indices(i)
    vecs = []
    for j in (p, q):
        w = np.asarray(ch[i][j], dtype=complex).flatten(order="F")
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise DegenerateChannel(f"cross channel H[{i}][{j}] is zero")
        vecs.append(w / norm)
    return AggregatedChannel(w1=vecs[0], w2=vecs[1])


def composite_distance(W: AggregatedChannel, codeword) -> float:
    """Sum of the two squared chordal distances between W and a codeword pair."""
    c1, c2 = codeword[0], codeword[1]
    if np.shape(c1) != W.w1.shape or np.shape(c2) != W.w2.shape:
        raise ShapeMismatch("codeword length does not match the channel vectors")
    d1 = 1.0 - abs(np.vdot(c1, W.w1)) ** 2
    d2 = 1.0 - abs(np.vdot(c2, W.w2)) ** 2
    return float(np.clip(d1, 0.0, 1.0) + np.clip(d2, 0.0, 1.0))


def random_unit_vectors(n_words: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """n_words i.i.d. uniform directions on the unit sphere in C^length."""
    g = complex_normal(rng, (n_words, length))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_composite_codebook(bits: int, length: int,
                              rng: np.random.Generator) -> CompositeCodebook:
    """Codebook of 2^bits i.i.d. pairs of uniform unit vectors."""
    if bits < 1:
        raise ShapeMismatch("bits must be at least 1")
    size = 2**bits
    entries = np.stack([random_unit_vectors(size, length, rng),
                        random_unit_vectors(size, length, rng)], axis=1)
    return CompositeCodebook(entries=entries, bits=bits)


def product_codebook(c1: np.ndarray, c2: np.ndarray) -> CompositeCodebook:
    """Composite codebook pairing every row of c1 with every row of c2."""
    n1, n2 = c1.shape[0], c2.shape[0]
    bits = int(round(np.log2(n1 * n2)))
    if 2**bits != n1 * n2:
        raise ShapeMismatch("component codebook sizes must multiply to a power of 2")
    entries = np.empty((n1 * n2, 2, c1.shape[1]), dtype=complex)
    entries[:, 0, :] = np.repeat(c1, n2, axis=0)
    entries[:, 1, :] = np.tile(c2, (n1, 1))
    return CompositeCodebook(entries=entries, bits=bits)


def quantize(W: AggregatedChannel, codebook: CompositeCodebook):
    """Index and codeword pair minimizing the composite distance (ties
    resolved to the lowest index)."""
    entries = codebook.entries
    if entries.shape[2] != W.w1.shape[0]:
        raise ShapeMismatch("codeword length does not match the channel vectors")
    d = (2.0 - np.abs(entries[:, 0, :].conj() @ W.w1) ** 2
         - np.abs(entries[:, 1, :].conj() @ W.w2) ** 2)
    idx = int(np.argmin(d))
    return idx, AggregatedChannel(w1=entries[idx, 0], w2=entries[idx, 1])


def quantize_individual(W: AggregatedChannel, bits: int,
                        rng: np.random.Generator) -> AggregatedChannel:
    """Quantize w1 and w2 separately, each against its own fresh random
    codebook of 2^(bits/2) unit vectors.

    The w1 codebook is drawn before the w2 codebook, so a caller holding
    the same rng state can reconstruct both. Odd bit budgets cannot be
    split equally and raise OddBitSplit.
    """
    if bits < 2 or bits % 2:
        raise OddBitSplit(f"total bits {bits} cannot be split equally over two vectors")
    half = 2 ** (bits // 2)
    out = []
    for w in (W.w1, W.w2):
        cb = random_unit_vectors(half, w.shape[0], rng)
        d = 1.0 - np.abs(cb.conj() @ w) ** 2
        out.append(cb[int(np.argmin(d))])
    return AggregatedChannel(w1=out[0], w2=out[1])


@lru_cache(maxsize=None)
def _perturbation_distortion(bits_per_vector: int, n: int) -> float:
    """quantization_bound(2^bits_per_vector, (n, 1)) clipped to [0, 1]."""
    return float(np.clip(quantization_bound(2**bits_per_vector, ManifoldParams(n, 1)),
                         0.0, 1.0))


def perturb_quantization_model(w: np.ndarray, bits_per_vector: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Statistical stand-in for quantizing direction w with 2^bits_per_vector
    random codewords.

    Returns sqrt(1-z) w + sqrt(z) e with e uniform on the unit sphere of
    the orthogonal complement of w and z the rank-1 distortion bound
    quantization_bound(2^B, (len(w), 1)) clipped to [0, 1], so the
    squared chordal distance to w is exactly z.
    """
    if bits_per_vector < 1:
        raise ShapeMismatch("bits_per_vector must be at least 1")
    w = _as_unit_vector(w)
    n = w.shape[0]
    z = _perturbation_distortion(bits_per_vector, n)
    while True:
        g = complex_normal(rng, n)
        g -= w * np.vdot(w, g)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            break
    e = g / norm
    return np.sqrt(1.0 - z) * w + np.sqrt(z) * e


def quantized_channel_set(ch, bits_total: int, mode: str,
                          rng: np.random.Generator):
    """Replace each cross channel by its de-vectorized quantized direction
    scaled back to the true Frobenius norm; direct channels pass through."""
    quantized = [[np.asarray(ch[i][j], dtype=complex) for j in range(3)]
                 for i in range(3)]
    if mode == "perfect":
        return quantized
    if bits_total < 2 or bits_total % 2:
        raise OddBitSplit(
            f"total bits {bits_total} cannot be split equally over two vectors")
    half_bits = bits_total // 2
    for i in range(3):
        agg = aggregate_channel(ch, i)
        if mode == "rvq":
            agg_q = quantize_individual(agg, bits_total, rng)
            directions = (agg_q.w1, agg_q.w2)
        elif mode == "perturbation":
            directions = (perturb_quantization_model(agg.w1, half_bits, rng),
                          perturb_quantization_model(agg.w2, half_bits, rng))
        else:
            raise ShapeMismatch(f"unknown feedback mode {mode!r}")
        for j, wq in zip(interferer_indices(i), directions):
            shape = quantized[i][j].shape
            scale = np.linalg.norm(quantized[i][j])
            quantized[i][j] = (wq * scale).reshape(shape, order="F")
    return quantized


def ia_limited_feedback_rate(ch, bits_total: int, mode: str, P: float,
                             rng: np.random.Generator) -> float:
    """Sum rate of IA computed from quantized cross channels.

    Each receiver feeds back its two cross-channel directions using
    bits_total bits split equally; mode "rvq" uses explicit random
    codebooks, "perturbation" the statistical error model, and
    "perfect" skips quantization (a consistency oracle). Precoders and
    receive filters both come from closed_form_ia on the quantized
    channel set; the rate is evaluated on the true channels, so
    misalignment shows up as residual interference.
    """
    quantized = quantized_channel_set(ch, bits_total, mode, rng)
    sol = closed_form_ia(quantized)
    return ia_sum_rate(ch, sol, P)
