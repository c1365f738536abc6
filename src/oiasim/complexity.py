"""FLOP-count model for the feedback workloads of OIA and IA.

All counts are exact integers. The OIA user computes one chordal metric
and compares it to a threshold, so its cost is linear in the number of
feedback bits; codebook-based IA quantization scans 2^bits codewords,
so its cost is exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OddBitSplit, ShapeMismatch

SCHEMES = ("oia_1bit", "ia_joint", "ia_individual")


@dataclass(frozen=True)
class FlopReport:
    """Feedback computation cost of one scheme at one bit budget."""

    scheme: str
    n_bits: int
    flops: int

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ShapeMismatch(f"unknown scheme {self.scheme!r}")
        if self.n_bits >= 1 and self.flops <= 0:
            raise ShapeMismatch("flops must be positive for n_bits >= 1")


def _check_dims(m: int, n: int):
    if m < 1 or n < 1:
        raise ShapeMismatch("matrix dimensions must be at least 1")


def _check_bits(n_bits: int):
    if n_bits < 0:
        raise ShapeMismatch("n_bits must be nonnegative")


def flops_oia_1bit(nr: int, d: int, n_bits: int) -> int:
    """Per-cell cost of n_bits users each computing and thresholding one
    chordal metric: n_bits (32 nr d^2 - 2 nr d)."""
    _check_dims(nr, d)
    _check_bits(n_bits)
    return n_bits * (32 * nr * d * d - 2 * nr * d)


def flops_ia_joint(nr: int, nt: int, n_bits: int) -> int:
    """Cost of scanning one joint codebook of 2^n_bits composite codewords:
    2^n_bits (64 nr nt - 4 nr nt)."""
    _check_dims(nr, nt)
    _check_bits(n_bits)
    return 2**n_bits * (64 * nr * nt - 4 * nr * nt)


def flops_ia_individual(nr: int, nt: int, n_bits: int) -> int:
    """Cost of scanning two per-vector codebooks of 2^(n_bits/2) codewords:
    2^(n_bits/2) (64 nr nt - 4 nr nt)."""
    _check_dims(nr, nt)
    _check_bits(n_bits)
    if n_bits % 2:
        raise OddBitSplit(f"n_bits {n_bits} cannot be split equally over two vectors")
    return 2 ** (n_bits // 2) * (64 * nr * nt - 4 * nr * nt)
