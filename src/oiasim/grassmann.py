"""Constants and draws on the complex Grassmannian.

Provides, on G(2d, d), where the selection metric of d streams at nr = 2d
receive antennas lives, the ball-volume constant that normalizes the
small-ball CDF of the squared chordal distance to a uniformly random
subspace, the CDF's support edge and the metric CDF itself; the
random-codebook distortion bound for unit vectors of C^n (lines of
G(n, 1)); and the complex normal draw that the channel drops and the
codebooks share. The metric itself, for every user of a drop, is
channel.cell_metrics.

The squared chordal distance between subspaces with orthonormal bases A and B
is d_c^2(A, B) = (1/2) * ||A A^H - B B^H||_F^2 = d - ||A^H B||_F^2.
For a fixed subspace of G(2d, d) and a Haar-uniform one, the CDF of d_c^2
behaves like F(x) = c_{2d,d} * x^{d^2} for small x (exact on [0, 1], and
everywhere for d = 1). MAX_D is the largest d whose c_{2d,d} is nonzero.

The d = 1 geometry needs numpy only (c_{2,1} = 1, and the distortion bound
takes log Gamma from math.lgamma); ball_volume with d > 1 imports
scipy.special.gammaln on its first call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch

# A matrix is treated as rank deficient when the smallest |R_jj| of its QR
# factorization, the column norms after projection in the complex
# Gram-Schmidt of channel._orthonormalize_columns, is at most RANK_RTOL
# times the largest. Such draws are measure-zero under the channel law and
# are redrawn by the caller, never repaired.
RANK_RTOL = 1e-12

# fl(1/sqrt(2)), the scale of a unit-variance complex normal
INV_SQRT2 = 1.0 / np.sqrt(2.0)

# array entries per block of every blocked loop: the normals of one
# complex_normal buffer (256 KiB) or RVQ block, the channel entries per link
# of a cell_metrics block (16384 users at d = 1, 4096 at d = 2); on a 2-CPU
# Xeon such blocks cost no more per item than one pass, blocks of 8192 2-3%
_BLOCK_SIZE = 32768

# the largest d with valid G(2d, d) constants: log c_{2d,d} falls strictly
# with d, -652.8 at d = 18 and -746.5 at d = 19, where c underflows to 0
MAX_D = 18


@lru_cache(maxsize=None)
def ball_volume(d: int) -> float:
    """Ball-volume constant c_{2d,d} of the complex Grassmannian G(2d, d).

    c_{n,d} = [1/Gamma(d(n-d)+1)] * prod_{i=1..d} Gamma(n-i+1)/Gamma(d-i+1)
    at n = 2d, for 1 <= d <= MAX_D, cached per d (a refusal is not cached).
    """
    if not 1 <= d <= MAX_D:
        raise ShapeMismatch(f"ball_volume requires 1 <= d <= {MAX_D}, got {d}")
    if d == 1:  # the log-Gamma sum below cancels to exactly 0
        return 1.0
    from scipy.special import gammaln
    n = 2 * d
    log_c = -gammaln(d * (n - d) + 1)
    for i in range(1, d + 1):
        log_c += gammaln(n - i + 1) - gammaln(d - i + 1)
    return float(np.exp(log_c))


def support_edge(d: int) -> float:
    """Support edge of the metric-CDF model on G(2d, d), the x with
    c_{2d,d} x^(d^2) = 1; at most d, the range of the metric."""
    return (1.0 / ball_volume(d)) ** (1.0 / (d * d))


def metric_cdf(x, d: int):
    """Model CDF of the squared chordal distance to a Haar-uniform subspace
    of G(2d, d).

    F(x) = c_{2d,d} * x^(d^2) clipped to [0, 1], elementwise (a float x
    stays a numpy scalar through the power). Exact for d = 1 and on [0, 1]
    for d > 1; above x = 1 it is the model the analysis uses, not the true
    law.
    """
    return np.minimum(ball_volume(d) * np.maximum(x, 0.0) ** (d * d), 1.0)


def quantization_bound(K: int, n: int) -> float:
    """Upper bound on E[min over K random unit vectors of d_c^2] to a fixed
    unit vector of C^n.

    Q(K) <= (Gamma(1/D)/D) * K^(-1/D) with D = n - 1, the random-codebook
    distortion bound on G(n, 1), whose constant c_{n,1} is 1.
    """
    if n < 2:
        raise ShapeMismatch(f"codewords need at least 2 entries, got {n}")
    if K < 1:
        raise ShapeMismatch("K must be at least 1")
    D = n - 1
    return float(np.exp(math.lgamma(1.0 / D) - np.log(D) - np.log(float(K)) / D))


def complex_normal(rng: np.random.Generator, shape, scale: float = 1.0,
                   out: np.ndarray | None = None) -> np.ndarray:
    """scale * (x + 1j y) for i.i.d. standard normal arrays x, y of the
    given shape, x drawn first, written into out (a complex128 array or
    view of that shape, of any strides) when given.

    Each half is drawn in blocks of at most _BLOCK_SIZE normals into one
    float64 buffer and written scaled into the complex128 result, so the
    draw needs that buffer beside out and no more. standard_normal fills
    sequentially, so the blocks give the stream and bits of
    (x + 1j * y) * scale, and leave the stream where one draw of each half
    would; with scale = INV_SQRT2 those of (x + 1j * y) / np.sqrt(2), since
    numpy divides a complex array by a real scalar by multiplying with the
    rounded reciprocal. A draw of at most one block is one fill per half.
    """
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    buf = np.empty(min(out.size, _BLOCK_SIZE))
    for part in (out.real, out.imag):
        for dst in _c_order_blocks(part, len(buf)):
            src = buf[:dst.size]
            rng.standard_normal(out=src)
            np.multiply(src.reshape(dst.shape), scale, out=dst)
    return out


def _c_order_blocks(a: np.ndarray, n: int) -> list:
    """Views of a, of at most n elements each, that cover it in C order:
    runs of whole entries of the first axis where one fits in n, else the
    blocks of each entry in turn."""
    if a.size <= n:
        return [a]
    run = n // (a.size // len(a))
    if run:
        return [a[s:s + run] for s in range(0, len(a), run)]
    return [block for entry in a for block in _c_order_blocks(entry, n)]

