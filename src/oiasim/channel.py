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
from .grassmann import _BLOCK_SIZE, INV_SQRT2, RANK_RTOL, complex_normal

_LOG2 = np.log(2.0)


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


def cell_metrics(ch: ChannelSet) -> np.ndarray:
    """Selection metrics of all K users of the three cells of a drop, a
    (3, K) array: each user's squared chordal distance between the column
    spaces of its two interference channels.

    Each user's metric depends on its own channels only, so each cell's
    users are scored in blocks of at most _BLOCK_SIZE // (nr nt), with
    the same arithmetic per user and the same bits as one pass, and the
    memory beyond the (3, K) result does not grow with K. Raises
    DegenerateChannel when an interference channel of some user is zero
    (d = 1) or rank deficient (d > 1); its `where` is the (3, K) mask of
    such users, gathered over all cells and blocks, which callers redraw.
    A metric reaches a row only through `<` against a threshold and argmin,
    never a rate, so the arithmetic may move it by rounding.
    """
    K, nr, d = ch.h.shape[2:]
    m = np.empty((3, K))
    bad = None  # made on the first degenerate block: a clean drop needs no (3, K) mask
    # blocks of equal size up to one user: none holds a single user, whose
    # reductions numpy would run in another order than a longer block's
    n = -(-K // (_BLOCK_SIZE // (nr * d)))
    for i in range(3):
        links = interferer_indices(i)
        for b in range(n):
            users = slice(K * b // n, K * (b + 1) // n)
            where = _block_metrics(ch.h[i, :, users], links, d, m[i, users])
            if where.any():
                if bad is None:
                    bad = np.zeros((3, K), dtype=bool)
                bad[i, users] = where
    if bad is not None:
        raise DegenerateChannel("degenerate interference channel draw", where=bad)
    return m


@np.errstate(divide="ignore", invalid="ignore")
def _block_metrics(hi: np.ndarray, links: tuple, d: int, out: np.ndarray) -> np.ndarray:
    """cell_metrics of a block of users of one cell, whose channels from
    the three transmitters are hi (3, users, nr, nt) and whose interferers
    are links, written into out. Returns the mask of the block's degenerate
    users, whose metrics are meaningless and raise no warning."""
    p, q = links
    if d == 1:
        Hp = np.ascontiguousarray(hi[p]).reshape(-1, 2)
        Hq = np.ascontiguousarray(hi[q]).reshape(-1, 2)
        # float views, one row (re0, im0, re1, im1) per user since nr = 2
        a, b = Hp.view(np.float64), Hq.view(np.float64)
        np_sq = np.einsum("kj,kj->k", a, a)
        nq_sq = np.einsum("kj,kj->k", b, b)
        bad = (np_sq <= 0) | (nq_sq <= 0)
        s = np.einsum("kj,kj->k", Hp.conj(), Hq)  # h_p^H h_q
        m = 1.0 - (s.real * s.real + s.imag * s.imag) / (np_sq * nq_sq)
    else:
        # one copy: column, then entry, then (link, user)
        X = np.ascontiguousarray(hi[[p, q]].transpose(3, 2, 0, 1))
        bad = _orthonormalize_columns(X).any(axis=0)
        # entry (b, c) of Qp^H Qq
        s = (X[:, None, :, 0].conj() * X[None, :, :, 1]).sum(axis=2)
        m = d - (s.real * s.real + s.imag * s.imag).sum(axis=(0, 1))
    np.clip(m, 0.0, float(d), out=out)
    return bad


def _orthonormalize_columns(X: np.ndarray) -> np.ndarray:
    """Orthonormalize in place, by modified Gram-Schmidt, the columns of the
    complex matrices of X (column, entry, stack axes...), and return the
    mask of the rank-deficient ones: whose smallest column norm after
    projection, |R_jj| of QR, is at most RANK_RTOL times the largest, set
    before anything is divided by it. Its rounding may move a metric, which
    reaches a row only through `<` and argmin (see cell_metrics).
    """
    lo = hi = None
    bad = np.zeros(X.shape[2:], dtype=bool)
    for j in range(len(X)):
        v = X[j]
        for u in X[:j]:
            v -= u * (u.conj() * v).sum(axis=0)  # minus u u^H v
        norm = np.sqrt((v.real * v.real + v.imag * v.imag).sum(axis=0))
        lo = norm if lo is None else np.minimum(lo, norm)
        hi = norm if hi is None else np.maximum(hi, norm)
        bad |= lo <= RANK_RTOL * hi
        v /= norm
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


def postfilter(R: np.ndarray) -> np.ndarray:
    """Receive filter spanning the invariant subspace of the d smallest
    eigenvalues of the Hermitian PSD (2d, 2d) matrix R, or of each matrix
    of a stack of them."""
    return np.linalg.eigh(R)[1][..., :R.shape[-1] // 2]


def user_rate(links: np.ndarray, U: np.ndarray, P: float):
    """Achievable rate of a user with served links (..., 3, nr, nt), as
    served_links returns them, behind postfilter U (..., nr, d), at
    transmit power P (finite, > 0) split over d = U.shape[-1] streams.

    rate = log2 det(I + (P/d) U^H H_ii H_ii^H U (B + I)^{-1}) with
    B = (P/d) sum_{j != i} U^H H_ij H_ij^H U, computed through the exact
    decomposition rate = gain - loss, where gain uses the
    desired-plus-interference covariance and loss the interference-only one.

    The rate has the shape of the leading axes: a float for one user.
    """
    if not 0.0 < P < np.inf:
        raise ShapeMismatch(f"need a finite power P > 0, got {P}")
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
