"""Property test of the point reducer: run_trials rows against per-cell lists."""

import math

import numpy as np
import pytest

from oiasim import ResultRow, harness, make_config

hypothesis = pytest.importorskip("hypothesis")
hnp = pytest.importorskip("hypothesis.extra.numpy")
st = hypothesis.strategies

_SCHEMES = ("oia_1bit", "oia_perfect", "ia_closed_form")


def _reference(cfg, snr_db, keys, trials):
    # reduces per-cell lists the way a record-per-cell harness does:
    # trials[t][key] = (rates, outage flags, eligible counts or []) of 3 cells
    rows = []
    n = len(trials)
    for scheme, K in keys:
        cells = [trial[(scheme, K)] for trial in trials]
        sums = np.array([sum(rates) for rates, _, _ in cells])
        flags = [f for _, outage, _ in cells for f in outage]
        eligible = [e for _, _, counts in cells for e in counts]
        rows.append(ResultRow(
            experiment=cfg.experiment, snr_db=float(snr_db), K=K, scheme=scheme,
            mean_sum_rate=float(sums.mean()),
            stderr=float(sums.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            outage_rate=float(np.mean(flags)),
            mean_eligible=float(np.mean(eligible)) if eligible else float("nan"),
            threshold_used=(harness.design_threshold("numeric", K, cfg.d)
                            if scheme == "oia_1bit" else float("nan")),
            trials=n))
    return rows


@st.composite
def _point(draw):
    schemes = draw(st.lists(st.sampled_from(_SCHEMES), min_size=1, max_size=4))
    keys = tuple((s, K) for K, s in enumerate(schemes, start=1))
    shape = (draw(st.integers(1, 50)), len(keys), 3)      # trials, keys, cells
    rates = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1e3)))
    flags = draw(hnp.arrays(np.bool_, shape))
    counts = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 10 ** 6)))
    trials = [{key: (rates[t, j].tolist(), flags[t, j].tolist(),
                     counts[t, j].tolist() if key[0] == "oia_1bit" else [])
               for j, key in enumerate(keys)} for t in range(shape[0])]
    return keys, trials


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(_point())
def test_aggregate_point_matches_per_cell_reduction(point):
    keys, trials = point
    cfg = make_config("fig3_eligible_users")
    rows = np.array([[(sum(rates), sum(outage), sum(counts) if counts else np.nan)
                      for rates, outage, counts in (trial[key] for key in keys)]
                     for trial in trials])
    assert rows.shape == (len(trials), len(keys), 3)
    got = harness._aggregate_point(cfg, 20.0, keys, rows)
    want = _reference(cfg, 20.0, keys, trials)
    # repr is exact for floats and tells nan and -0.0 apart
    assert [list(map(repr, vars(r).values())) for r in got] == \
        [list(map(repr, vars(r).values())) for r in want]
