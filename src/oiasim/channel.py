"""3-cell MIMO interference channel: generation, selection metric,
postfilter, and achievable rate.

Receiver cell i (0-based) is interfered by transmitters p = (i+1) mod 3 and
q = (i+2) mod 3. Every user sees i.i.d. unit-variance circularly-symmetric
complex Gaussian channel matrices of shape (nr, nt), noise variance is 1,
so the linear SNR equals the transmit power P. The antenna counts follow
from d: nr = 2d and nt = d, the smallest setup that supports d streams
per transmitter with full degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannel, ShapeMismatch
from .grassmann import INV_SQRT2, RANK_RTOL, complex_normal

_LOG2 = np.log(2.0)

# channel entries per interference link in one block of cell_metrics:
# 16384 users at d = 1 and 4096 at d = 2, whose temporaries take about
# 1 and 3 MB; such blocks cost no more per user than one pass
_BLOCK_ENTRIES = 32768


@dataclass(frozen=True)
class ChannelSet:
    """All channel matrices of one Monte Carlo drop.

    h[i, j, k] is the (2d, d) matrix from transmitter j to user k of cell
    i: h has shape (3, 3, K, 2d, d) with K, d >= 1, and d = h.shape[-1].
    """

    h: np.ndarray

    def __post_init__(self):
        shape = self.h.shape
        if len(shape) != 5 or shape != _drop_shape(shape[2], shape[4]):
            raise ShapeMismatch(f"channel array shape {shape}, expected (3, 3, K, 2d, d)")


def _drop_shape(K: int, d: int) -> tuple:
    """Shape of a drop of K users per cell with d streams."""
    if d < 1 or K < 1:
        raise ShapeMismatch(f"need d >= 1 and K >= 1, got d = {d}, K = {K}")
    return (3, 3, K, 2 * d, d)


def interferer_indices(i):
    """The two transmitters interfering with receiver cell i (0-based),
    elementwise for an integer array of cells."""
    return (i + 1) % 3, (i + 2) % 3


def generate_channels(rng: np.random.Generator, d: int, K: int,
                      out: np.ndarray | None = None) -> ChannelSet:
    """Draw all 9 K channel matrices of a drop of K users per cell with d
    streams, i.i.d. CN(0, 1) entries, into out (a complex128 array or view
    of shape (3, 3, K, 2d, d)) when given.

    Bit-identical to (re + 1j * im) / np.sqrt(2) on the same random
    stream; see complex_normal.
    """
    shape = _drop_shape(K, d)
    if out is not None and out.shape != shape:
        raise ShapeMismatch(f"output shape {out.shape}, expected {shape}")
    return ChannelSet(h=complex_normal(rng, shape, INV_SQRT2, out))


def cell_metrics(ch: ChannelSet, i: int) -> np.ndarray:
    """Selection metrics of all K users of cell i at once: each user's
    squared chordal distance between the column spaces of its two
    interference channels.

    Each user's metric depends on its own channels only, so the users are
    scored in blocks of at most _BLOCK_ENTRIES // (nr nt), with the same
    arithmetic per user and the same bits as one pass, and the memory
    beyond the (K,) result does not grow with K; up to one block is one
    pass. Raises DegenerateChannel when an interference channel of some
    user is zero (d = 1) or rank deficient (d > 1); its `where` is the (K,)
    mask of such users, gathered over all blocks, which callers redraw.
    """
    links = interferer_indices(i)
    K, nr, d = ch.h.shape[2:]
    size = _BLOCK_ENTRIES // (nr * d)
    if K <= size:  # same bits as the loop, about half its time per call at d = 1, K = 10
        return _block_metrics(ch.h[i], links, d)
    m = np.empty(K)
    bad = message = None
    # blocks of equal size up to one user: none holds a single user, whose
    # reductions numpy would run in another order than a longer block's
    n = -(-K // size)
    for b in range(n):
        users = slice(K * b // n, K * (b + 1) // n)
        try:
            _block_metrics(ch.h[i, :, users], links, d, out=m[users])
        except DegenerateChannel as exc:
            if bad is None:
                bad = np.zeros(K, dtype=bool)
            bad[users] = exc.where
            message = str(exc)
    if bad is not None:
        raise DegenerateChannel(message, where=bad)
    return m


def _block_metrics(hi: np.ndarray, links: tuple, d: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """cell_metrics of a block of users of one cell, whose channels from
    the three transmitters are hi (3, users, nr, nt) and whose interferers
    are links, written into out when given."""
    p, q = links
    if d == 1:
        Hp = hi[p]
        Hq = hi[q]
        # float views, one row (re0, im0, re1, im1) per user since nr = 2
        a = np.ascontiguousarray(Hp).view(np.float64).reshape(len(Hp), 4)
        b = np.ascontiguousarray(Hq).view(np.float64).reshape(len(Hq), 4)
        np_sq = np.einsum("kj,kj->k", a, a)
        nq_sq = np.einsum("kj,kj->k", b, b)
        bad = (np_sq <= 0) | (nq_sq <= 0)
        if bad.any():
            raise DegenerateChannel("zero interference channel draw", where=bad)
        # real and imaginary parts of h_p^H h_q
        re = np.einsum("kj,kj->k", a, b)
        im = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] + a[:, 2] * b[:, 3] - a[:, 3] * b[:, 2]
        m = 1.0 - (re * re + im * im) / (np_sq * nq_sq)
    else:
        # columns, then entries, then (link, user): real and imaginary parts
        X = hi[[p, q]].transpose(3, 2, 0, 1)
        re, im = np.ascontiguousarray(X.real), np.ascontiguousarray(X.imag)
        bad = _orthonormalize_columns(re, im)
        if bad.any():
            raise DegenerateChannel("rank-deficient channel draw",
                                    where=bad.any(axis=0))
        # entry (b, c) of Qp^H Qq, real and imaginary part
        pr, pi = re[:, None, :, 0], im[:, None, :, 0]
        qr, qi = re[None, :, :, 1], im[None, :, :, 1]
        sr = (pr * qr + pi * qi).sum(axis=2)
        si = (pr * qi - pi * qr).sum(axis=2)
        m = d - (sr * sr + si * si).sum(axis=(0, 1))
    return np.clip(m, 0.0, float(d), out=out)


def _orthonormalize_columns(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of a stack of complex (n, d) matrices in
    place, by modified Gram-Schmidt, and return the mask of the
    rank-deficient matrices, whose columns are then meaningless.

    re and im hold the real and imaginary parts with the column first, then
    the entry, then the stack axes: shape (d, n, ...). Every operation
    then runs on whole rows of the stack.
    The column norms after projection are |R_jj| of the QR factorization.
    A matrix whose smallest is at most RANK_RTOL times its largest is
    rank deficient; the mask is set before anything is divided by it.
    """
    lo = hi = None
    bad = np.zeros(re.shape[2:], dtype=bool)
    for j in range(len(re)):
        vr, vi = re[j], im[j]
        for l in range(j):
            ur, ui = re[l], im[l]
            # u^H v, real and imaginary part
            pr = (ur * vr + ui * vi).sum(axis=0)
            pi = (ur * vi - ui * vr).sum(axis=0)
            vr -= ur * pr - ui * pi
            vi -= ur * pi + ui * pr
        norm = np.sqrt((vr * vr + vi * vi).sum(axis=0))
        lo = norm if lo is None else np.minimum(lo, norm)
        hi = norm if hi is None else np.maximum(hi, norm)
        bad |= lo <= RANK_RTOL * hi
        with np.errstate(divide="ignore", invalid="ignore"):
            vr /= norm
            vi /= norm
    return bad


def _herm(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return M.conj().swapaxes(-1, -2)


def served_links(ch: ChannelSet, i, k) -> np.ndarray:
    """The links of user k of cell i, shape (3, nr, nt): from its own
    transmitter i first, then from its interferers p and q.

    i and k are a cell and a user, or integer arrays that broadcast to one
    shape; the links then have that shape in front. One fancy index.
    """
    i = np.asarray(i)[..., None]
    return ch.h[i, (i + np.arange(3)) % 3, np.asarray(k)[..., None]]


def interference_covariance(links: np.ndarray) -> np.ndarray:
    """Received interference covariance R = H_ip H_ip^H + H_iq H_iq^H of
    served links (..., 3, nr, nt) as served_links returns them, one R per
    entry of the leading axes."""
    Hp = links[..., 1, :, :]
    Hq = links[..., 2, :, :]
    return Hp @ _herm(Hp) + Hq @ _herm(Hq)


def postfilter(R: np.ndarray, d: int) -> np.ndarray:
    """Receive filter spanning the invariant subspace of the d smallest
    eigenvalues of the Hermitian PSD matrix R, or of each matrix of a
    stack of them."""
    w, v = np.linalg.eigh(R)
    return v[..., :d]


def user_rate(links: np.ndarray, U: np.ndarray, P: float):
    """Achievable rate of a user with served links (..., 3, nr, nt), as
    served_links returns them, behind postfilter U (..., nr, d), at
    transmit power P > 0 split over d = U.shape[-1] streams.

    rate = log2 det(I + (P/d) U^H H_ii H_ii^H U (B + I)^{-1}) with
    B = (P/d) sum_{j != i} U^H H_ij H_ij^H U, computed through the exact
    decomposition rate = gain - loss, where gain uses the
    desired-plus-interference covariance and loss the interference-only one.

    The rate has the shape of the leading axes: a float for one user.
    """
    if not P > 0:
        raise ShapeMismatch(f"need P > 0, got {P}")
    d = U.shape[-1]
    scale = P / d
    # U^H H_ii, U^H H_ip and U^H H_iq in one stacked matmul
    G = _herm(U)[..., None, :, :] @ links
    Gs, Gp, Gq = G[..., 0, :, :], G[..., 1, :, :], G[..., 2, :, :]
    A = scale * (Gs @ _herm(Gs))
    B = scale * (Gp @ _herm(Gp) + Gq @ _herm(Gq))
    eye = np.eye(d)
    gain = np.linalg.slogdet(eye + A + B)[1] / _LOG2
    loss = np.linalg.slogdet(eye + B)[1] / _LOG2
    return gain - loss
