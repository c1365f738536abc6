"""Properties of config parsing: every accepted SNR grid and seed gives grid
points with a finite power P > 0 and at least one user, and fixed: K lists
round-trip through parse_k_rule."""

import math

import pytest

from oiasim import ConfigError, make_config
from oiasim.harness import _point_k_values, parse_k_rule

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
    for snr_db in cfg.snr_db_grid:
        P = 10.0 ** (snr_db / 10.0)
        assert 0.0 < P < math.inf
        assert min(_point_k_values(cfg, P)) >= 1


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
