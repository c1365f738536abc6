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
true ones. feedback_mode picks the model for a per-cell budget.

closed_form_ia and ia_link_rates work on stacks of drops, shape
(..., 3, 3, 2, 2) indexed receiver then transmitter; one drop is the
one-element case; ia_link_rates rates each receiver's precoded links
with channel.user_rate, OIA's rate formula. quantized_channel_set
quantizes the six cross links of a drop, or of a stack of drops with one
generator each, drawing and scoring consecutive links in blocks of at
most _BLOCK_SIZE normals, which may span drops (one link at 24 bits, 16
at 16 bits). Norms and inner products are numpy reductions along the
last axis, which the per-vector oracle in the tests repeats.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import interferer_indices, user_rate
from .errors import DegenerateChannel, OddBitSplit, ShapeMismatch
from .grassmann import _BLOCK_SIZE, quantization_bound

RVQ_BIT_LIMIT = 24  # the largest budget feedback_mode gives explicit codebooks
MAX_BITS = 2046  # the largest even budget b with 2^(b/2) codewords a finite double
_COND_LIMIT = 1e12
_UNIT_ATOL = 1e-12
_CELLS = np.arange(3)
# first and second interferer (i+1 mod 3, i+2 mod 3) of each receiver i
_P, _Q = interferer_indices(_CELLS)
# the six cross links (receiver, transmitter), receiver-major, each
# receiver's first interferer before its second
_RX = np.repeat(_CELLS, 2)
_TX = np.stack([_P, _Q], axis=1).ravel()
# each receiver's own transmitter, then its interferers: served_links' order
_SERVED = np.stack([_CELLS, _P, _Q], axis=1)


def _as_drops(ch) -> np.ndarray:
    H = np.array(ch, dtype=complex, order="C")
    if H.shape[-4:] != (3, 3, 2, 2):
        raise ShapeMismatch(f"channels have shape {H.shape}, expected (..., 3, 3, 2, 2)")
    return H


def closed_form_ia(ch) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form IA solution for 3-user 2x2 single-stream drops: the unit
    precoders v_j and receive filters u_i of the three pairs, two
    (..., 3, 2) arrays; precoders[..., j, :] is v_j.

    ch has shape (..., 3, 3, 2, 2), ch[..., i, j, :, :] the channel from
    transmitter j to receiver i. v1 is the eigenvector of
    E = H31^-1 H32 H12^-1 H13 H23^-1 H21 with the largest-magnitude
    eigenvalue, phase-normalized so its first nonzero entry is real
    positive; v2 and v3 align the interference seen at receivers 3 and 2
    with it. u_i is orthogonal to the aligned interference at receiver i.

    Raises DegenerateChannel when a cross matrix of any drop has condition
    number >= 1e12, a non-finite entry or a non-finite inverse; its `where`
    holds the mask of such drops, and callers redraw them.
    """
    H = _as_drops(ch)
    cross = H[..., _RX, _TX, :, :]      # H01 H02 H12 H10 H20 H21
    # a matrix with a non-finite entry is zeroed: its condition reads inf
    finite = np.isfinite(cross).all(axis=(-2, -1), keepdims=True)
    usable = np.linalg.cond(np.where(finite, cross, 0.0)) < _COND_LIMIT
    # an unusable matrix is inverted as the identity; a usable one of
    # subnormal entries has an inverse past the largest double
    inv = np.linalg.inv(np.where(usable[..., None, None], cross, np.eye(2)))
    bad = ~np.all(usable & np.isfinite(inv).all(axis=(-2, -1)), axis=-1)
    if np.any(bad):
        raise DegenerateChannel("a cross channel is ill-conditioned", where=bad)
    E = (inv[..., 4, :, :] @ cross[..., 5, :, :] @ inv[..., 0, :, :]
         @ cross[..., 1, :, :] @ inv[..., 2, :, :] @ cross[..., 3, :, :])
    eigvals, eigvecs = np.linalg.eig(E)
    top = np.argmax(np.abs(eigvals), axis=-1)
    v1 = np.take_along_axis(eigvecs, top[..., None, None], axis=-1)[..., 0]
    v1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    lead = np.where(v1[..., 0] != 0, v1[..., 0], v1[..., 1])
    v1 = v1 * (np.abs(lead) / lead)[..., None]
    v2 = (inv[..., 5, :, :] @ cross[..., 4, :, :] @ v1[..., None])[..., 0]
    v2 /= np.linalg.norm(v2, axis=-1, keepdims=True)
    v3 = (inv[..., 2, :, :] @ cross[..., 3, :, :] @ v1[..., None])[..., 0]
    v3 /= np.linalg.norm(v3, axis=-1, keepdims=True)
    v = np.stack([v1, v2, v3], axis=-2)

    # interference from the first interferer at each receiver
    a = (cross[..., 0::2, :, :] @ v[..., _P, :, None])[..., 0]
    norm = np.linalg.norm(a, axis=-1)
    if np.any(norm == 0.0):
        raise DegenerateChannel("aligned interference vanished",
                                where=np.any(norm == 0.0, axis=-1))
    u = np.stack([-np.conj(a[..., 1]), np.conj(a[..., 0])], axis=-1) / norm[..., None]
    return v, u


def ia_link_rates(ch, precoders, filters, P: float) -> np.ndarray:
    """Per-receiver rates, shape (..., 3), of single-stream IA solutions
    on channels ch; the unit precoders and filters, (..., 3, 2) arrays as
    closed_form_ia returns them, and ch broadcast over their leading axes.

    Receiver i's precoded links H_ii v_i, H_ip v_p, H_iq v_q are rated by
    channel.user_rate behind the filter u_i, residual interference
    treated as noise, at a power P that is finite and > 0.
    """
    H = _as_drops(ch)
    v = np.asarray(precoders, dtype=complex)
    u = np.asarray(filters, dtype=complex)
    if v.shape[-2:] != (3, 2) or u.shape != v.shape:
        raise ShapeMismatch("need three precoders and filters of length 2")
    unit = np.linalg.norm(np.concatenate([v, u], axis=-2), axis=-1)
    if np.any(np.abs(unit - 1.0) > _UNIT_ATOL):
        raise ShapeMismatch("precoders and filters must be unit norm")
    links = H[..., _CELLS[:, None], _SERVED, :, :] @ v[..., _SERVED, :, None]
    return user_rate(links, u[..., None], P)


def feedback_mode(bits_total: int) -> str:
    """fig6's quantizer model: "rvq" up to RVQ_BIT_LIMIT bits, else "perturbation"."""
    return "rvq" if bits_total <= RVQ_BIT_LIMIT else "perturbation"


def _rvq(w, g) -> np.ndarray:
    """Each row of w quantized against its own codewords c = re + i im,
    (re, im) = g[row] of shape (2, words, n): the codeword maximizing
    |c^H w|^2 / |c|^2 (the first on ties) is normalized; no other is. Both
    squared norms are sums of squares of real numbers."""
    re, im = g[:, 0], g[:, 1]
    # real and imaginary part of c^H w for every codeword c = re + i im
    proj = re @ np.stack([w.real, w.imag], axis=-1)
    proj += im @ np.stack([w.imag, -w.real], axis=-1)
    np.square(proj, out=proj)
    halves = np.square(g) @ np.ones(w.shape[-1])      # |re|^2 and |im|^2
    score = (proj[..., 0] + proj[..., 1]) / (halves[:, 0] + halves[:, 1])
    links = np.arange(len(w))
    best = np.argmax(score, axis=1)
    c = re[links, best] + 1j * im[links, best]
    return c / np.linalg.norm(c, axis=-1, keepdims=True)


def _perturb(w, g, z: float) -> np.ndarray:
    """Statistical stand-in for quantizing each row of w with random
    codewords of distortion z: sqrt(1-z) w + sqrt(z) e with e the unit
    direction of g[row, 0] + i g[row, 1] orthogonal to w, so the squared
    chordal distance to w is exactly z. A row whose drawn direction has
    norm <= 1e-12 comes back NaN."""
    e = g[:, 0] + 1j * g[:, 1]
    e -= w * (np.conj(w) * e).sum(axis=-1, keepdims=True)
    norm = np.linalg.norm(e, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(norm > 1e-12, e / norm, np.nan)
    return np.sqrt(1.0 - z) * w + np.sqrt(z) * e


def quantized_channel_set(ch, bits_total: int, mode: str, rng) -> np.ndarray:
    """Channels ch, one drop (3, 3, 2, 2) with a Generator rng or a stack
    (T, 3, 3, 2, 2) with a sequence of T Generators, each cross channel
    replaced by its de-vectorized quantized direction, scaled back to the
    true Frobenius norm; direct channels pass through.

    Each receiver splits bits_total, even and in [2, MAX_BITS] (else
    OddBitSplit, before any draw), equally over its two cross channels.
    mode "rvq" quantizes against fresh random codebooks of 2^(bits_total/2)
    i.i.d. complex Gaussian codewords, "perturbation" uses the statistical
    error model with the clipped rank-1 distortion bound. Each drop's six
    links draw from its own generator in receiver order, first interferer
    (i+1 mod 3) first, so a drop of a stack gets what it gets alone. A zero
    cross channel, or a perturbation direction that vanishes, leaves NaN
    or a zero matrix behind, which closed_form_ia reports as degenerate.
    """
    H = _as_drops(ch)
    drops = H.reshape(-1, 3, 3, 2, 2)
    rngs = [rng] if H.ndim == 4 else rng
    if H.ndim > 5 or not isinstance(rngs, (list, tuple)) or len(rngs) != len(drops):
        raise ShapeMismatch("need one drop and a Generator, or T drops and T Generators")
    if not 2 <= bits_total <= MAX_BITS or bits_total % 2:
        raise OddBitSplit(f"total bits {bits_total} are not an even number "
                          f"in [2, {MAX_BITS}] to split over two vectors")
    if mode == "rvq":
        shape, quantize = (2, 2 ** (bits_total // 2), 4), _rvq
    elif mode == "perturbation":
        z = np.clip(quantization_bound(2**(bits_total // 2), 4), 0, 1)
        shape, quantize = (2, 4), lambda w, g: _perturb(w, g, z)
    else:
        raise ShapeMismatch(f"unknown feedback mode {mode!r}")
    cross = drops[:, _RX, _TX]
    scale = np.linalg.norm(cross.reshape(-1, 4), axis=-1)
    w = cross.transpose(0, 1, 3, 2).reshape(-1, 4)      # column-major vectorization
    with np.errstate(divide="ignore", invalid="ignore"):
        w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    # blocks of at most _BLOCK_SIZE normals (at least one link) that may
    # span drops, each drop's part drawn by its own generator
    wq = np.empty_like(w)
    step = max(1, _BLOCK_SIZE // math.prod(shape))
    for lo in range(0, len(w), step):
        hi = min(lo + step, len(w))
        g = [rngs[t].standard_normal((min(hi, 6 * t + 6) - max(lo, 6 * t),) + shape)
             for t in range(lo // 6, (hi + 5) // 6)]
        wq[lo:hi] = quantize(w[lo:hi], g[0] if len(g) == 1 else np.concatenate(g))
    drops[:, _RX, _TX] = (wq * scale[:, None]).reshape(-1, 6, 2, 2).transpose(0, 1, 3, 2)
    return H
