"""Interference-alignment baseline for the 3-user 2x2 channel.

Closed-form IA with one stream per user: the first precoder is an
eigenvector of the composite map E = H31^-1 H32 H12^-1 H13 H23^-1 H21,
the other two follow by alignment, and each receive filter is the unit
vector orthogonal to the (aligned) interference direction.

Limited feedback quantizes each receiver's two vectorized, unit-normalized
cross channels separately, either against a fresh random codebook per
link (RVQ) or through a statistical perturbation model whose squared
chordal error equals the random-codebook distortion bound. IA is then
computed from the de-vectorized quantized channels and evaluated on the
true ones.

closed_form_ia and ia_link_rates work on stacks of drops, shape
(..., 3, 3, 2, 2) indexed receiver then transmitter; one drop is the
one-element case. quantized_channel_set quantizes the six cross links of
one drop, drawing the RVQ codebooks of consecutive links in blocks of at
most _DRAW_BLOCK normals (one link at 24 bits, all six at 16 and below).
Norms and inner products are stacked matmuls of row by column vectors,
which numpy hands to the same BLAS dot kernels as np.linalg.norm and
np.vdot, so each result equals the one-vector call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import _check_power, interferer_indices
from .errors import DegenerateChannel, OddBitSplit, ShapeMismatch
from .grassmann import _DRAW_BLOCK, ManifoldParams, quantization_bound

_COND_LIMIT = 1e12
_UNIT_ATOL = 1e-12
_CELLS = np.arange(3)
# first and second interferer (i+1 mod 3, i+2 mod 3) of each receiver i
_P, _Q = interferer_indices(_CELLS)
# the six cross links (receiver, transmitter), receiver-major, each
# receiver's first interferer before its second
_RX = np.repeat(_CELLS, 2)
_TX = np.stack([_P, _Q], axis=1).ravel()


def _dot(a, b):
    """Sum over the last axis of a * b for real arrays, as np.dot."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(x):
    """np.linalg.norm of each complex vector along the last axis."""
    return np.sqrt(_dot(x.real, x.real) + _dot(x.imag, x.imag))


def _vdot(a, b):
    """np.vdot of each pair of complex vectors along the last axis."""
    return (np.conj(a)[..., None, :] @ b[..., :, None])[..., 0, 0]


def _as_drops(ch) -> np.ndarray:
    H = np.array(ch, dtype=complex, order="C")
    if H.shape[-4:] != (3, 3, 2, 2):
        raise ShapeMismatch(f"channels have shape {H.shape}, expected (..., 3, 3, 2, 2)")
    return H


@dataclass(frozen=True)
class IaSolution:
    """Unit precoders v_j and receive filters u_i of the three pairs, as
    (..., 3, 2) arrays: precoders[..., j, :] is v_j."""

    precoders: np.ndarray
    receive_filters: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.precoders, dtype=complex)
        u = np.asarray(self.receive_filters, dtype=complex)
        if v.shape[-2:] != (3, 2) or u.shape != v.shape:
            raise ShapeMismatch("need three precoders and filters of length 2")
        if np.any(np.abs(_norm(np.concatenate([v, u], axis=-2)) - 1.0) > _UNIT_ATOL):
            raise ShapeMismatch("precoders and filters must be unit norm")
        object.__setattr__(self, "precoders", v)
        object.__setattr__(self, "receive_filters", u)


def closed_form_ia(ch) -> IaSolution:
    """Closed-form IA solution for 3-user 2x2 single-stream drops.

    ch has shape (..., 3, 3, 2, 2), ch[..., i, j, :, :] the channel from
    transmitter j to receiver i. v1 is the eigenvector of
    E = H31^-1 H32 H12^-1 H13 H23^-1 H21 with the largest-magnitude
    eigenvalue, phase-normalized so its first nonzero entry is real
    positive; v2 and v3 align the interference seen at receivers 3 and 2
    with it. u_i is orthogonal to the aligned interference at receiver i.

    Raises DegenerateChannel when a cross matrix of any drop has condition
    number >= 1e12 (or NaN); its `where` holds the mask of such drops, and
    callers redraw them.
    """
    H = _as_drops(ch)
    cross = H[..., _RX, _TX, :, :]      # H01 H02 H12 H10 H20 H21
    # a matrix with a non-finite entry is zeroed: its 0/0 condition is NaN
    finite = np.isfinite(cross).all(axis=(-2, -1), keepdims=True)
    s = np.linalg.svd(np.where(finite, cross, 0.0), compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = ~np.all(s[..., 0] / s[..., 1] < _COND_LIMIT, axis=-1)
    if np.any(bad):
        raise DegenerateChannel("a cross channel is ill-conditioned", where=bad)
    inv = np.linalg.inv(cross)
    E = (inv[..., 4, :, :] @ cross[..., 5, :, :] @ inv[..., 0, :, :]
         @ cross[..., 1, :, :] @ inv[..., 2, :, :] @ cross[..., 3, :, :])
    eigvals, eigvecs = np.linalg.eig(E)
    top = np.argmax(np.abs(eigvals), axis=-1)
    v1 = np.take_along_axis(eigvecs, top[..., None, None], axis=-1)[..., 0]
    v1 = v1 / _norm(v1)[..., None]
    lead = np.where(v1[..., 0] != 0, v1[..., 0], v1[..., 1])
    v1 = v1 * (np.abs(lead) / lead)[..., None]
    v2 = (inv[..., 5, :, :] @ cross[..., 4, :, :] @ v1[..., None])[..., 0]
    v2 /= _norm(v2)[..., None]
    v3 = (inv[..., 2, :, :] @ cross[..., 3, :, :] @ v1[..., None])[..., 0]
    v3 /= _norm(v3)[..., None]
    v = np.stack([v1, v2, v3], axis=-2)

    # interference from the first interferer at each receiver
    a = (cross[..., 0::2, :, :] @ v[..., _P, :, None])[..., 0]
    norm = _norm(a)
    if np.any(norm == 0.0):
        raise DegenerateChannel("aligned interference vanished",
                                where=np.any(norm == 0.0, axis=-1))
    u = np.stack([-np.conj(a[..., 1]), np.conj(a[..., 0])], axis=-1) / norm[..., None]
    return IaSolution(precoders=v, receive_filters=u)


def ia_link_rates(ch, sol: IaSolution, P: float) -> np.ndarray:
    """Per-receiver rates, shape (..., 3), of single-stream IA solutions
    on channels ch; sol and ch broadcast over their leading axes.

    Treats residual interference as noise: receiver i gets
    log2(1 + P|u^H H_ii v_i|^2 / (1 + P sum_{j != i} |u^H H_ij v_j|^2)),
    at a power P that is finite and > 0.
    """
    _check_power(P)
    H = _as_drops(ch)
    x = (H @ sol.precoders[..., None, :, :, None])[..., 0]    # H_ij v_j
    g = _vdot(sol.receive_filters[..., :, None, :], x)
    # hypot and float_power round as abs(z) ** 2 does on one complex scalar
    gain = np.float_power(np.hypot(g.real, g.imag), 2)
    signal = P * gain[..., _CELLS, _CELLS]
    leak = P * (gain[..., _CELLS, _P] + gain[..., _CELLS, _Q])
    return np.log2(1.0 + signal / (1.0 + leak))


@lru_cache(maxsize=None)
def _perturbation_distortion(bits_per_vector: int, n: int) -> float:
    """quantization_bound(2^bits_per_vector, (n, 1)) clipped to [0, 1]."""
    return float(np.clip(quantization_bound(2**bits_per_vector, ManifoldParams(n, 1)),
                         0.0, 1.0))


def _rvq(w, bits_per_vector: int, rng) -> np.ndarray:
    """Each row of w quantized against its own 2^bits_per_vector i.i.d.
    complex Gaussian codewords, drawn link by link, real block before
    imaginary, and scored in runs of consecutive links whose codebooks
    hold at most _DRAW_BLOCK normals (at least one link); the stream is
    that of one draw for all rows. The codeword maximizing
    |c^H w|^2 / |c|^2 (the first on ties) is normalized; no other is."""
    n_words, n = 2**bits_per_vector, w.shape[-1]
    step = max(1, _DRAW_BLOCK // (2 * n_words * n))
    out = np.empty_like(w)
    for lo in range(0, len(w), step):
        wb = w[lo:lo + step]
        g = rng.standard_normal((len(wb), 2, n_words, n))
        re, im = g[:, 0], g[:, 1]
        # real and imaginary part of c^H w for every codeword c = re + i im
        proj = re @ np.stack([wb.real, wb.imag], axis=-1)
        proj += im @ np.stack([wb.imag, -wb.real], axis=-1)
        score = np.einsum("lnc,lnc->ln", proj, proj) / np.einsum("lcnk,lcnk->ln", g, g)
        links = np.arange(len(wb))
        best = np.argmax(score, axis=1)
        c = re[links, best] + 1j * im[links, best]
        out[lo:lo + step] = c / np.linalg.norm(c, axis=1, keepdims=True)
    return out


def _perturb(w, bits_per_vector: int, rng) -> np.ndarray:
    """Statistical stand-in for quantizing each row of w with
    2^bits_per_vector random codewords: sqrt(1-z) w + sqrt(z) e with e
    uniform on the unit sphere orthogonal to w and z the clipped rank-1
    distortion bound, so the squared chordal distance to w is exactly z.
    A row whose drawn direction has norm <= 1e-12 comes back NaN."""
    z = _perturbation_distortion(bits_per_vector, w.shape[-1])
    g = rng.standard_normal((len(w), 2, w.shape[-1]))
    e = g[:, 0] + 1j * g[:, 1]
    e -= w * _vdot(w, e)[:, None]
    norm = _norm(e)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(norm > 1e-12, e / norm, np.nan)
    return np.sqrt(1.0 - z) * w + np.sqrt(z) * e


def quantized_channel_set(ch, bits_total: int, mode: str,
                          rng: np.random.Generator) -> np.ndarray:
    """One drop's (3, 3, 2, 2) channels with each cross channel replaced by
    its de-vectorized quantized direction, scaled back to the true
    Frobenius norm; direct channels pass through.

    Each receiver splits bits_total equally over its two cross channels.
    mode "rvq" quantizes against fresh random codebooks, "perturbation"
    uses the statistical error model. The six links draw in receiver
    order, first interferer (i+1 mod 3) first. A zero cross channel, or a
    perturbation direction that vanishes, leaves NaN or a zero matrix
    behind, which closed_form_ia reports as degenerate.
    """
    H = _as_drops(ch)
    if H.ndim != 4:
        raise ShapeMismatch("quantized_channel_set takes the channels of one drop")
    if bits_total < 2 or bits_total % 2:
        raise OddBitSplit(
            f"total bits {bits_total} cannot be split equally over two vectors")
    quantizer = {"rvq": _rvq, "perturbation": _perturb}.get(mode)
    if quantizer is None:
        raise ShapeMismatch(f"unknown feedback mode {mode!r}")
    cross = H[_RX, _TX]
    scale = _norm(cross.reshape(6, 4))
    w = cross.transpose(0, 2, 1).reshape(6, 4)      # column-major vectorization
    with np.errstate(divide="ignore", invalid="ignore"):
        w = w / _norm(w)[:, None]
    wq = quantizer(w, bits_total // 2, rng) * scale[:, None]
    H[_RX, _TX] = wq.reshape(6, 2, 2).transpose(0, 2, 1)
    return H
