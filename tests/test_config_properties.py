"""Properties of config parsing and CSV output: every accepted SNR grid and
seed gives grid points with a finite power P > 0 and at least one user,
k_values holds the K values the K rule gives at each grid point, fixed: K
lists round-trip through parse_k_rule, a config built directly equals the
one make_config builds, a config written as a key=value file reads back to
the same config, and CSV rows parse back to 9 significant digits."""

import math
import os
import tempfile

import pytest

from oiasim import (EXPERIMENTS, ConfigError, ExperimentConfig, ResultRow,
                    make_config, write_csv)
from oiasim.harness import load_config_file, parse_k_rule

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(grid=st.lists(st.floats(), min_size=1, max_size=4),
                  seed=st.integers(),
                  K_rule=st.sampled_from(["ceil_P", "ceil_P_pow:3", "fixed:1,7"]))
def test_accepted_grid_and_seed_give_finite_power_and_users(grid, seed, K_rule):
    try:
        cfg = make_config("fig3_eligible_users",
                          {"snr_db_grid": grid, "seed": seed, "K_rule": K_rule})
    except ConfigError:
        return
    assert cfg.seed >= 0
    for snr_db, ks in zip(cfg.snr_db_grid, cfg.k_values, strict=True):
        P = 10.0 ** (snr_db / 10.0)
        assert 0.0 < P < math.inf
        assert min(ks) >= 1


def _point_k_values(K_rule, snr_db):
    """The K values of a grid point at snr_db, computed from the K rule per
    point: the oracle of ExperimentConfig.k_values. P^E is 10^(E snr_db / 10),
    so K is exact at powers of ten, where a rounded P raised to E is not."""
    kind, payload = parse_k_rule(K_rule)
    if kind == "ceil_P_pow":
        return (math.ceil(10.0 ** (payload * snr_db / 10.0)),)
    return payload


def _oracle_k_values(grid, K_rule):
    """k_values of a grid under K_rule, or None where a point has no finite
    power P > 0 with K >= 1."""
    k_values = []
    for snr_db in grid:
        try:
            P = 10.0 ** (snr_db / 10.0)
            if not (0.0 < P < math.inf and min(_point_k_values(K_rule, snr_db)) >= 1):
                return None
        except OverflowError:
            return None
        k_values.append(_point_k_values(K_rule, snr_db))
    return tuple(k_values)


_K_RULES = (st.just("ceil_P")
            | st.integers(1, 6).map(lambda e: f"ceil_P_pow:{e}")
            | st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=5,
                       unique=True).map(lambda ks: "fixed:" + ",".join(map(str, ks))))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(grid=st.lists(st.floats(-400.0, 400.0) | st.floats(), min_size=1,
                                max_size=5, unique=True),
                  K_rule=_K_RULES)
def test_k_values_are_the_k_rule_at_each_point(grid, K_rule):
    hypothesis.assume(len(set(grid)) == len(grid))     # NaNs are never equal
    expected = _oracle_k_values(grid, K_rule)
    overrides = {"snr_db_grid": grid, "K_rule": K_rule}
    if expected is None:
        with pytest.raises(ConfigError, match="finite power"):
            make_config("fig3_eligible_users", overrides)
        return
    cfg = make_config("fig3_eligible_users", overrides)
    assert cfg.k_values == expected
    assert all(type(k) is int for ks in cfg.k_values for k in ks)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(values=st.lists(st.integers(1, 10 ** 12), min_size=1, max_size=8),
                  sep=st.sampled_from([",", ", ", " ,"]))
def test_fixed_k_rule_round_trips(values, sep):
    rule = "fixed:" + sep.join(str(v) for v in values)
    if len(set(values)) < len(values):
        with pytest.raises(ConfigError):
            parse_k_rule(rule)
        return
    kind, ks = parse_k_rule(rule)
    assert (kind, ks) == ("fixed", tuple(sorted(values)))
    assert parse_k_rule("fixed:" + ",".join(str(k) for k in ks)) == (kind, ks)


_CONFIG_VALUES = {
    "snr_db_grid": st.lists(st.floats(-20.0, 60.0), min_size=1, max_size=4),
    "K_rule": st.sampled_from(["ceil_P", "ceil_P_pow:2", "fixed:10,50",
                               "fixed:2,64,2046"]),
    "d": st.integers(1, 3),
    "trials": st.integers(-2, 10 ** 6),
    "seed": st.integers(-1, 2 ** 64),
    # a '#' inside a value is part of it
    "output_path": st.from_regex(r"[A-Za-z0-9_./-][A-Za-z0-9_./#-]{0,29}", fullmatch=True),
}


def _as_text(value):
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return str(value)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(experiment=st.sampled_from(sorted(EXPERIMENTS)),
                  values=st.fixed_dictionaries({}, optional=_CONFIG_VALUES),
                  as_text=st.booleans())
def test_direct_config_equals_make_config(experiment, values, as_text):
    if as_text:
        values = {key: _as_text(v) for key, v in values.items()}
    try:
        expected = make_config(experiment, values)
    except ConfigError:
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment=experiment, **values)
        return
    assert ExperimentConfig(experiment=experiment, **values) == expected


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(experiment=st.sampled_from(sorted(EXPERIMENTS)),
                  values=st.fixed_dictionaries({}, optional=_CONFIG_VALUES))
def test_config_file_reads_back_to_the_same_config(experiment, values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"experiment = {experiment}\n")
            fh.writelines(f"{key} = {_as_text(v)}\n" for key, v in values.items())
        try:
            direct = make_config(experiment, values)
        except ConfigError:
            with pytest.raises(ConfigError):
                make_config(experiment, load_config_file(path))
            return
        assert make_config(experiment, load_config_file(path)) == direct


_FLOATS = st.floats(allow_subnormal=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_subnormal=False) | st.just(math.nan)
_FRACTION = st.floats(0.0, 1.0, allow_subnormal=False) | st.just(math.nan)


def _parses_back(cell, value):
    """cell is value with at most 9 significant digits, so within half a
    unit of the ninth."""
    parsed = float(cell)
    if not math.isfinite(value):
        return parsed == value or (math.isnan(parsed) and math.isnan(value))
    digits = cell.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
    return len(digits) <= 9 and math.isclose(parsed, value, rel_tol=5.0000001e-9)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(rows=st.lists(st.builds(
    ResultRow, experiment=st.sampled_from(sorted(EXPERIMENTS)), snr_db=_FLOATS,
    K=st.integers(1, 10 ** 12), scheme=st.sampled_from(["oia_1bit", "ia_joint"]),
    mean_sum_rate=_FLOATS, stderr=_NONNEGATIVE, outage_rate=_FRACTION,
    mean_eligible=_FLOATS, threshold_used=_FLOATS, trials=st.integers(0, 10 ** 6)),
    min_size=1, max_size=5))
def test_csv_rows_parse_back_to_9_significant_digits(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, rows)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    assert lines[0].startswith("# generated_at=")
    names = lines[1].split(",")
    assert len(lines) == 2 + len(rows)
    for row, line in zip(rows, lines[2:]):
        cells = dict(zip(names, line.split(",")))
        assert cells.keys() == set(names)
        for name, cell in cells.items():
            value = getattr(row, name)
            if isinstance(value, float):
                assert _parses_back(cell, value), (name, cell, value)
            else:
                assert cell == str(value)
