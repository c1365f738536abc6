"""Exact FLOP counts for the feedback workloads."""

import pytest

from oiasim import (FlopReport, OddBitSplit, ShapeMismatch, flops_ia_individual,
                    flops_ia_joint, flops_oia_1bit)
from oiasim.complexity import SCHEMES


def test_oia_counts():
    assert flops_oia_1bit(2, 1, 1) == 60
    assert flops_oia_1bit(2, 1, 10) == 600
    assert flops_oia_1bit(4, 2, 10) == 4960
    assert flops_oia_1bit(2, 1, 0) == 0
    # linear in the bit budget
    assert flops_oia_1bit(4, 2, 20) == 2 * flops_oia_1bit(4, 2, 10)


def test_ia_joint_counts():
    assert flops_ia_joint(2, 1, 1) == 240
    assert flops_ia_joint(2, 1, 2) == 480
    assert flops_ia_joint(2, 2, 10) == 245760
    # exponential in the bit budget
    assert flops_ia_joint(2, 2, 20) == 2 ** 10 * flops_ia_joint(2, 2, 10)


def test_ia_individual_counts():
    assert flops_ia_individual(2, 1, 4) == 480
    assert flops_ia_individual(2, 2, 10) == 7680
    with pytest.raises(OddBitSplit):
        flops_ia_individual(2, 2, 9)


def test_individual_vs_joint_scan():
    # halving the scanned codebook twice: 2^(b/2) vs 2^b entries
    for b in (4, 8, 12):
        joint = flops_ia_joint(2, 2, b)
        indiv = flops_ia_individual(2, 2, b)
        assert indiv * 2 ** (b // 2) == joint


def test_ia_to_oia_ratio_grows():
    ratios = [flops_ia_individual(2, 2, b) / flops_oia_1bit(2, 1, b)
              for b in (2, 6, 10, 14)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert flops_ia_individual(2, 2, 10) / flops_oia_1bit(2, 1, 10) == 12.8
    assert ratios[2] > 10.0


def test_bit_budget_guards():
    with pytest.raises(ShapeMismatch):
        flops_oia_1bit(0, 1, 1)
    with pytest.raises(ShapeMismatch):
        flops_ia_individual(2, 0, 2)
    with pytest.raises(ShapeMismatch):
        flops_oia_1bit(2, 1, -1)
    assert flops_ia_joint(2, 1, 62) == 2 ** 62 * 120
    # exact Python ints, beyond any fixed-width count
    assert flops_ia_joint(2, 2, 63) == 2 ** 63 * 240


def test_flop_report_validation():
    r = FlopReport(scheme="oia_1bit", n_bits=10, flops=600)
    assert r.scheme in SCHEMES
    with pytest.raises(ShapeMismatch):
        FlopReport(scheme="oia", n_bits=10, flops=600)
    with pytest.raises(ShapeMismatch):
        FlopReport(scheme="ia_joint", n_bits=10, flops=0)
    FlopReport(scheme="oia_1bit", n_bits=0, flops=0)
