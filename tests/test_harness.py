"""Experiment registry, seeded trials, aggregation, and CSV output."""

import dataclasses
import glob
import hashlib
import math
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy

from oiasim import (EXPERIMENTS, ConfigError, DegenerateChannel, ExperimentConfig,
                    IoError, ResultRow, ShapeMismatch, UnknownExperiment,
                    harness, make_config,
                    optimal_threshold_d1, run_experiment, run_trial, run_trials,
                    threshold_numeric, write_csv)
from oiasim.cli import main
from oiasim.grassmann import MAX_D, ball_volume, support_edge
from oiasim.harness import design_threshold, load_config_file, parse_k_rule


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _body(path):
    lines = _read_lines(path)
    assert lines[0].startswith("# generated_at=")
    return lines[1:]


def test_parse_k_rule_forms():
    # ceil_P is the power rule at E = 1, not a kind of its own
    assert parse_k_rule("ceil_P") == ("ceil_P_pow", 1)
    assert parse_k_rule("ceil_P:") == ("ceil_P_pow", 1)
    assert parse_k_rule("ceil_P_pow:1") == ("ceil_P_pow", 1)
    assert parse_k_rule("ceil_P_pow:2") == ("ceil_P_pow", 2)
    assert parse_k_rule("fixed:10,50,100") == ("fixed", (10, 50, 100))
    assert parse_k_rule("fixed:100,10") == ("fixed", (10, 100))


@pytest.mark.parametrize("rule", ["ceil_P:2", "ceil_P_pow", "ceil_P_pow:x",
                                  "ceil_P_pow:0", "fixed", "fixed:a,b",
                                  "fixed:0,5", "fixed:10,10", "fixed:5,10,5",
                                  "nope"])
def test_parse_k_rule_rejects(rule):
    with pytest.raises(ConfigError):
        parse_k_rule(rule)


def test_fixed_k_beyond_the_double_range_refused_while_parsing(tmp_path, monkeypatch):
    # every design computes with float(K), which overflows from the first
    # integer past the largest double; such a K is a usage error
    largest = int(sys.float_info.max)
    assert parse_k_rule(f"fixed:1,{largest}") == ("fixed", (1, largest))
    with pytest.raises(ConfigError, match="fixed K values"):
        parse_k_rule(f"fixed:100,{2 ** 1024}")

    def never(*args, **kwargs):
        raise AssertionError("a threshold was designed for a refused K")

    for name in ("threshold_lambert", "threshold_asymptotic", "threshold_numeric"):
        monkeypatch.setattr(harness, name, never)
    out = tmp_path / "never.csv"
    assert main(["run", "fig4_threshold_compare", "--config", str(_cfg_file(
        tmp_path, f"K_rule = fixed:100,{2 ** 1024}\n")), "--out", str(out)]) == 2
    assert not out.exists()


def test_make_config_defaults():
    cfg = make_config("fig2_sumrate_d1")
    assert cfg.trials == 2000
    assert cfg.seed == 12345
    assert cfg.d == 1
    # d is the only dimension: nr = 2d, nt = d and the threshold design
    # follow from it
    fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.init]
    assert fields == ["experiment", "snr_db_grid", "K_rule", "d", "trials", "seed",
                      "output_path"]
    assert cfg.snr_db_grid == tuple(float(s) for s in range(0, 45, 5))
    assert cfg.output_path == os.path.join("results", "fig2_sumrate_d1.csv")


def test_make_config_overrides_and_coercion():
    cfg = make_config("fig2_sumrate_d1", {"trials": "10", "seed": "7",
                                          "snr_db_grid": "0,10",
                                          "output_path": "x.csv"})
    assert cfg.trials == 10 and cfg.seed == 7
    assert cfg.snr_db_grid == (0.0, 10.0)
    assert cfg.output_path == "x.csv"
    with pytest.raises(ConfigError):
        make_config("fig2_sumrate_d1", {"shoe_size": "9"})
    with pytest.raises(ConfigError):
        make_config("fig2_sumrate_d1", {"experiment": "fig3_eligible_users"})
    make_config("fig2_sumrate_d1", {"experiment": "fig2_sumrate_d1"})
    with pytest.raises(UnknownExperiment):
        make_config("fig9_mystery")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\n\ntrials = 10  # trailing\nseed=99\n",
                    encoding="utf-8")
    assert load_config_file(str(path)) == {"trials": "10", "seed": "99"}
    # '#' starts a comment only at a line's start or after whitespace
    path.write_text("output_path = /tmp/run#2.csv\n#trials = 3\n", encoding="utf-8")
    assert load_config_file(str(path)) == {"output_path": "/tmp/run#2.csv"}
    path.write_text("trials = 5\nseed = 1\ntrials = 50\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r":3: key 'trials' is already set on line 1"):
        load_config_file(str(path))
    path.write_text("wat = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(path))
    path.write_text("no equals sign\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(path))
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.cfg"))
    path.write_text("trials = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        make_config("fig2_sumrate_d1", load_config_file(str(path)))
    # a byte-order mark, as some editors save UTF-8, is not part of a key
    path.write_text("trials = 10\nseed=99\n", encoding="utf-8-sig")
    assert load_config_file(str(path)) == {"trials": "10", "seed": "99"}


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fig2_sumrate_d1", snr_db_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fig2_sumrate_d1", trials=0)
    # a repeated point would rerun the first copy's trial streams
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fig2_sumrate_d1", snr_db_grid=(10, 10.0))
    with pytest.raises(ConfigError):
        make_config("fig3_eligible_users", {"snr_db_grid": "0,10,0"})
    with pytest.raises(TypeError):
        ExperimentConfig(experiment="fig2_sumrate_d1", threshold_method="numeric")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fig2_sumrate_d1", d=0)
    cfg = ExperimentConfig(experiment="fig5_sumrate_d2", d=2, K_rule="ceil_P_pow:2")
    assert cfg.output_path == os.path.join("results", "fig5_sumrate_d2.csv")
    with pytest.raises(UnknownExperiment):
        ExperimentConfig(experiment="fig9_mystery")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="fig2_sumrate_d1", seed=-1)
    # a grid string is split on commas, as a config file's is
    assert ExperimentConfig(experiment="fig3_eligible_users",
                            snr_db_grid="13").snr_db_grid == (13.0,)
    with pytest.raises(ConfigError, match="snr_db_grid"):
        ExperimentConfig(experiment="fig3_eligible_users", snr_db_grid="0,x")
    for key, value in (("trials", 2.5), ("seed", True), ("d", 1.0), ("d", None),
                       ("snr_db_grid", [None]), ("snr_db_grid", 5),
                       ("snr_db_grid", ["x"]), ("K_rule", 5), ("K_rule", None),
                       ("output_path", 5), ("output_path", ["x.csv"])):
        with pytest.raises(ConfigError, match=key):
            make_config("fig2_sumrate_d1", {key: value})
    for name in (["x"], 5, None):
        with pytest.raises(UnknownExperiment):
            make_config(name)
        with pytest.raises(UnknownExperiment):
            ExperimentConfig(experiment=name)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_direct_config_takes_its_registry_defaults(experiment):
    cfg = ExperimentConfig(experiment=experiment)
    assert cfg == make_config(experiment)
    defaults = {**harness._BASE_DEFAULTS, **EXPERIMENTS[experiment].defaults}
    for name, value in defaults.items():
        assert getattr(cfg, name) == value
    assert cfg.output_path == os.path.join("results", f"{experiment}.csv")


def test_padded_and_numeric_strings_read_as_their_values():
    expected = ExperimentConfig(
        experiment="fig5_sumrate_d2", snr_db_grid=(10.0, 20.0), K_rule="fixed:10,50",
        d=2, trials=7, seed=3, output_path="x.csv")
    padded = {"snr_db_grid": " 10, 20 ", "K_rule": " fixed:10,50 ", "d": " 2",
              "trials": "7 ", "seed": "\t3\n", "output_path": " x.csv "}
    assert make_config("fig5_sumrate_d2", padded) == expected
    assert ExperimentConfig(experiment="fig5_sumrate_d2", **padded) == expected
    # an all-blank path is the default one, as an empty one is
    assert (make_config("fig5_sumrate_d2", {"output_path": "  "}).output_path
            == os.path.join("results", "fig5_sumrate_d2.csv"))


def test_k_values_derived_and_read_only():
    cfg = make_config("fig3_eligible_users", {"snr_db_grid": "0,10,40",
                                              "K_rule": "ceil_P_pow:2"})
    assert cfg.k_values == ((1,), (100,), (10 ** 8,))
    assert make_config("fig5_sumrate_d2", {"snr_db_grid": "10,20"}).k_values == (
        (10, 50, 100), (10, 50, 100))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k_values = ()


def test_ceil_p_pow_is_exact_at_powers_of_ten():
    # a rounded P = 10^(snr_db/10) raised to E can land an ulp above 10^n,
    # which the ceiling turns into one user too many
    cfg = make_config("fig3_eligible_users", {"snr_db_grid": "5,25,35",
                                              "K_rule": "ceil_P_pow:2"})
    assert cfg.k_values == ((10,), (10 ** 5,), (10 ** 7,))
    cfg = make_config("fig3_eligible_users", {"snr_db_grid": "5,7.5,12.5",
                                              "K_rule": "ceil_P_pow:4", "d": 2})
    assert cfg.k_values == ((100,), (1000,), (10 ** 5,))
    with pytest.raises(ConfigError, match="k_values"):
        make_config("fig3_eligible_users", {"k_values": ((1,),)})
    with pytest.raises(TypeError):
        ExperimentConfig(experiment="fig3_eligible_users", k_values=((1,),))


def test_ceil_p_is_the_power_rule_at_exponent_one():
    # one power formula for every exponent, and any exponent at any d
    for d in (1, 2, 3):
        assert (make_config("fig3_eligible_users", {"K_rule": "ceil_P", "d": d}).k_values
                == make_config("fig3_eligible_users",
                               {"K_rule": "ceil_P_pow:1", "d": d}).k_values)
    cfg = make_config("fig3_eligible_users", {"K_rule": "ceil_P_pow:3", "d": 2,
                                              "snr_db_grid": "10"})
    assert cfg.k_values == ((1000,),)


@pytest.mark.parametrize("experiment, K_rule", [
    ("fig4_threshold_compare", "ceil_P"),
    ("fig6_oia_vs_ia", "ceil_P_pow:1"),
    ("fig6_oia_vs_ia", "fixed:10,15"),
    ("fig6_oia_vs_ia", "fixed:2,2048"),
    ("fig7_complexity_table", "fixed:2,3"),
])
def test_registry_k_rule_refused_while_parsing(experiment, K_rule):
    with pytest.raises(ConfigError):
        make_config(experiment, {"K_rule": K_rule})


def test_registry_largest_bit_budget_accepted():
    cfg = make_config("fig6_oia_vs_ia", {"K_rule": "fixed:2,2046"})
    assert parse_k_rule(cfg.K_rule) == ("fixed", (2, 2046))


def test_result_row_validation():
    with pytest.raises(ConfigError):
        ResultRow(experiment="e", snr_db=0.0, K=1, scheme="s",
                  mean_sum_rate=1.0, stderr=-0.1, outage_rate=0.0,
                  mean_eligible=1.0, threshold_used=0.5, trials=1)
    with pytest.raises(ConfigError):
        ResultRow(experiment="e", snr_db=0.0, K=1, scheme="s",
                  mean_sum_rate=1.0, stderr=0.1, outage_rate=1.5,
                  mean_eligible=1.0, threshold_used=0.5, trials=1)
    ResultRow(experiment="e", snr_db=float("nan"), K=1, scheme="s",
              mean_sum_rate=float("nan"), stderr=float("nan"),
              outage_rate=float("nan"), mean_eligible=float("nan"),
              threshold_used=float("nan"), trials=0)


def test_threshold_value_dispatch():
    # a run designs the optimal threshold, numeric, at every d: the closed
    # form at d = 1, the minimizer of the bound above
    assert design_threshold("numeric", 100, 1) == optimal_threshold_d1(100)
    assert design_threshold("numeric", 50, 2) == threshold_numeric(50, 2)
    assert harness.THRESHOLD_METHODS == ("numeric", "lambert", "asymptotic")
    # every entry designs a threshold except fig7, the FLOP table
    for name, spec in EXPERIMENTS.items():
        assert spec.designs is (name != "fig7_complexity_table"), name
    # the closed form is no second design name
    for method, d in (("closed_form_d1", 1), ("bogus", 2)):
        with pytest.raises(ConfigError) as exc:
            harness.design_threshold(method, 10, d)
        assert str(exc.value) == f"unknown threshold method {method!r}"


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_threshold_method_is_an_unknown_key(experiment):
    for method in harness.THRESHOLD_METHODS:
        with pytest.raises(ConfigError, match="unknown config key 'threshold_method'"):
            make_config(experiment, {"threshold_method": method})


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("experiment", ["fig2_sumrate_d1", "fig3_eligible_users",
                                        "fig5_sumrate_d2", "fig6_oia_vs_ia"])
def test_threshold_used_is_the_optimal_design_for_d(tmp_path, experiment, d):
    # whatever the experiment, the closed form at d = 1 and the numeric
    # minimizer at d = 2, bit for bit, and printed as such
    out = tmp_path / "out.csv"
    rows = run_experiment(make_config(experiment, {"d": d, "trials": 2,
                                                   "output_path": str(out)}))
    lines = out.read_text(encoding="utf-8").splitlines()[2:]
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        if row.scheme != "oia_1bit":
            assert math.isnan(row.threshold_used)
            continue
        expected = (optimal_threshold_d1(row.K) if d == 1
                    else threshold_numeric(row.K, 2))
        assert row.threshold_used == expected
        assert line.split(",")[8] == "%.9g" % expected


def test_run_trial_deterministic():
    cfg = make_config("fig2_sumrate_d1")
    keys, a, _ = run_trial(cfg, 10.0, 3)
    assert keys == (("oia_perfect", 10), ("oia_1bit", 10), ("ia_closed_form", 1))
    assert a.shape == (3, 3) and a.dtype == np.float64
    assert np.array_equal(a, run_trial(cfg, 10.0, 3)[1], equal_nan=True)
    c_keys, c, _ = run_trial(cfg, 10.0, 4)
    assert c_keys == keys
    assert not np.array_equal(a[:, 0], c[:, 0])
    # outage counts in [0, 3]; only the 1-bit scheme has eligible counts
    assert np.array_equal(a[[0, 2], 1], [0.0, 0.0])
    assert 0 <= a[1, 1] <= 3
    assert 0 <= a[1, 2] <= 3 * 10
    assert np.isnan(a[[0, 2], 2]).all()


def test_run_trial_single_user_is_forced():
    # with K = 1 both schemes serve user 0 of every cell, so they share
    # each cell's rate and hence the sum, bit for bit
    cfg = make_config("fig2_sumrate_d1")
    for t in range(5):
        keys, rows, _ = run_trial(cfg, 0.0, t)
        assert keys[:2] == (("oia_perfect", 1), ("oia_1bit", 1))
        assert rows[0, 0] == rows[1, 0]
        assert rows[1, 2] == 3 - rows[1, 1]


def test_run_trial_unknown_experiment():
    cfg = ExperimentConfig(experiment="fig4_threshold_compare",
                           snr_db_grid=(30.0,), K_rule="fixed:100", d=2)
    with pytest.raises(UnknownExperiment):
        run_trial(cfg, 30.0, 0)


def test_run_trials_refuse_bad_trial_indices(monkeypatch):
    cfg = make_config("fig3_eligible_users", {"snr_db_grid": "10"})
    draws = _spoil(monkeypatch, "generate_channels", 0, lambda t, args: False,
                   lambda drop: None)
    for bad in ([-1], [0, 1.5], [True], ["2"], [0, np.int64(-3)], range(-1, 3),
                range(3, -2, -1)):
        with pytest.raises(ConfigError, match="non-negative integers"):
            run_trials(cfg, bad)
    with pytest.raises(ConfigError, match="non-negative integers"):
        run_trial(cfg, 10.0, -1)
    for empty in ([], range(0), range(5, 2)):
        with pytest.raises(ConfigError, match="at least one trial index"):
            run_trials(cfg, empty)
    assert draws == []
    assert run_trials(cfg, [np.int64(2)])[1].shape[:2] == (1, 1)
    # a range is taken as it is, a descending one in its own order
    assert np.array_equal(run_trials(cfg, range(3, -1, -1))[1],
                          run_trials(cfg, [3, 2, 1, 0])[1])


def test_run_trials_refuse_snr_off_the_grid():
    # run_trials runs every grid point; run_trial names one, on the grid
    cfg = make_config("fig3_eligible_users", {"snr_db_grid": "0,10"})
    with pytest.raises(ConfigError,
                       match=r"snr_db 5.0 is not on the grid \(0.0, 10.0\)"):
        run_trial(cfg, 5.0, 0)
    # anything but a number, even a string that parses to a grid value
    for snr_db in ("abc", "0", None, [1], [0.0]):
        with pytest.raises(ConfigError, match="is not on the grid"):
            run_trial(cfg, snr_db, 0)


def _drop_bytes(cfg, snr_db):
    """Bytes of one channel drop at an SNR point, as chunks count them."""
    kmax = max(cfg.k_values[cfg.snr_db_grid.index(snr_db)])
    return 16 * 9 * kmax * (2 * cfg.d) * cfg.d


@pytest.mark.parametrize("experiment, snr_db", [("fig2_sumrate_d1", 20.0),
                                                ("fig3_eligible_users", 25.0),
                                                ("fig5_sumrate_d2", 30.0),
                                                ("fig6_oia_vs_ia", 20.0)])
def test_run_trials_rows_do_not_depend_on_chunking(monkeypatch, experiment, snr_db):
    # every grid point, in grid order: a smaller drop at 10 dB, then snr_db
    cfg = make_config(experiment, {"snr_db_grid": f"10,{snr_db}"})
    n = 7
    singles = [[run_trial(cfg, snr, t) for t in range(n)] for snr in cfg.snr_db_grid]
    expected = np.stack([[rows for _, rows, _ in point] for point in singles])
    for per_chunk in (1, 2, 3, n, 10 ** 6):
        monkeypatch.setattr(harness, "_CHUNK_BYTES",
                            per_chunk * (_drop_bytes(cfg, snr_db) + harness._GENERATOR_BYTES))
        keys, rows, redraws = run_trials(cfg, range(n))
        assert keys == tuple(point[0][0] for point in singles)
        assert redraws == 0
        assert rows.shape == (2, n, len(keys[1]), 3)
        assert np.array_equal(rows, expected, equal_nan=True)
    # any order and subset of trials: each row is its own trial's
    rows = run_trials(cfg, [5, 0, 3])[1]
    assert np.array_equal(rows, expected[:, [5, 0, 3]], equal_nan=True)
    with pytest.raises(ConfigError):
        run_trials(cfg, [])


def _generator_bytes(cfg, n):
    """Traced bytes per Generator of a list of the n Generators that a
    chunk of n trials at grid point index 0 makes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rngs = [np.random.default_rng([cfg.seed, 0, t]) for t in range(n)]
        return (tracemalloc.get_traced_memory()[0] - before) / len(rngs)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("experiment, snr_db, n", [("fig3_eligible_users", 0.0, 700),
                                                   ("fig5_sumrate_d2", 30.0, 10),
                                                   ("fig6_oia_vs_ia", 20.0, 80)])
def test_chunk_holds_its_drops_and_generators_within_chunk_bytes(monkeypatch, experiment,
                                                                  snr_db, n):
    # at K = 1 a chunk's Generators outweigh its drops: counting drops only,
    # a fig3 chunk held 3,472 trials, about 4 MB of Generators
    cfg = make_config(experiment, {"snr_db_grid": str(snr_db)})
    spec = EXPERIMENTS[experiment]
    sizes = []

    def trial(cfg, P, ks, rngs, redraws):
        sizes.append(len(rngs))
        return spec.trial(cfg, P, ks, rngs, redraws)

    monkeypatch.setitem(EXPERIMENTS, experiment, dataclasses.replace(spec, trial=trial))
    run_trials(cfg, range(n))
    size = sizes[0]
    assert len(sizes) > 1 and size > 1 and sum(sizes) == n
    assert size * (_drop_bytes(cfg, snr_db) + _generator_bytes(cfg, size)) <= harness._CHUNK_BYTES


@pytest.mark.parametrize("experiment, overrides", [
    ("fig2_sumrate_d1", {}), ("fig3_eligible_users", {}),
    ("fig3_eligible_users", {"d": "2", "snr_db_grid": "0,10,20"}),
    ("fig5_sumrate_d2", {}), ("fig6_oia_vs_ia", {"snr_db_grid": "0,20,40"})])
def test_rows_do_not_move_when_every_metric_moves_one_ulp(monkeypatch, experiment,
                                                          overrides):
    # a metric reaches the rows only through `<` against a threshold and
    # argmin, never a rate; so cell_metrics may move metrics by rounding
    # without moving a row, unless one ties a threshold or another metric
    cfg = make_config(experiment, {"seed": "80516", **overrides})
    expected = run_trials(cfg, range(12))
    metrics = harness.cell_metrics
    for direction in (np.inf, -np.inf):
        calls = []

        def moved(ch, direction=direction):
            calls.append(ch)
            return np.nextafter(metrics(ch), direction)

        monkeypatch.setattr(harness, "cell_metrics", moved)
        keys, rows, _ = run_trials(cfg, range(12))
        assert calls
        assert keys == expected[0]
        assert np.array_equal(rows, expected[1], equal_nan=True)


def _trial_of(rng):
    return rng.bit_generator.seed_seq.entropy[2]


def _spoil(monkeypatch, name, rng_arg, hit, spoil):
    """Wrap harness.<name> so that spoil(drop) runs on each drop of a call
    for which hit(trial, args) holds; a call takes one generator and makes
    one drop, or a list of generators and a stack of their drops. Returns
    the trials of all drops, in call order."""
    real = getattr(harness, name)
    calls = []

    def spoiled(*args, **kwargs):
        out = real(*args, **kwargs)
        one = isinstance(args[rng_arg], np.random.Generator)
        for rng, drop in zip([args[rng_arg]] if one else args[rng_arg],
                             [out] if one else out):
            t = _trial_of(rng)
            if hit(t, args):
                spoil(drop)
            calls.append(t)
        return out

    monkeypatch.setattr(harness, name, spoiled)
    return calls


def _zero_link(ch):
    ch.h[1, 2, 3] = 0.0                 # transmitter 2 interferes at cell 1


def _rank_one_link(ch):
    h = ch.h[2, 0, 5]                   # transmitter 0 interferes at cell 2
    h[:, 1] = (0.3 - 1.7j) * h[:, 0]


def _rank_one_ia_channel(ch2):
    ch2[0, 1] = [[1.0, 1.0], [2.0, 2.0]]


def _rank_one_budget(quantized):
    quantized[2, 0] = [[1.0, 1.0], [2.0, 2.0]]


@pytest.mark.parametrize("experiment, name, rng_arg, spoil", [
    ("fig3_eligible_users", "generate_channels", 0, _zero_link),
    ("fig5_sumrate_d2", "generate_channels", 0, _rank_one_link),
    ("fig2_sumrate_d1", "_draw_ia_channels", 0, _rank_one_ia_channel),
    ("fig6_oia_vs_ia", "quantized_channel_set", 3, _rank_one_budget),
])
def test_degenerate_draw_mid_chunk_redraws_only_its_trial(monkeypatch, experiment,
                                                           name, rng_arg, spoil):
    # the first draw of trial 2 of a five-trial chunk is degenerate (for
    # fig6, that of its 16-bit budget): it alone draws again, from its own
    # stream, as run_trial does, and the other trials keep their rows
    cfg = make_config(experiment, {"snr_db_grid": "20",
                                   "K_rule": "fixed:10,16,40"}
                      if experiment == "fig6_oia_vs_ia" else {"snr_db_grid": "20"})
    n, bad = 5, 2
    clean = run_trials(cfg, range(n))[1]

    matches = []

    def first_of_a_run(t, args):
        if t != bad or (experiment == "fig6_oia_vs_ia" and args[1] != 16):
            return False
        # every run draws it twice: the spoiled draw, then the redraw
        matches.append(t)
        return len(matches) % 2 == 1

    calls = _spoil(monkeypatch, name, rng_arg, first_of_a_run, spoil)
    _, chunk, redraws = run_trials(cfg, range(n))
    draws = [calls.count(t) for t in range(n)]
    del calls[:]
    singles = [run_trial(cfg, 20.0, t) for t in range(n)]
    assert [calls.count(t) for t in range(n)] == draws
    assert draws[bad] == draws[0] + 1
    assert redraws == 1
    assert [r for _, _, r in singles] == [0, 0, 1, 0, 0]
    assert np.array_equal(chunk[0], np.stack([rows for _, rows, _ in singles]),
                          equal_nan=True)
    keep = [t for t in range(n) if t != bad]
    assert np.array_equal(chunk[0, keep], clean[0, keep], equal_nan=True)
    assert not np.array_equal(chunk[0, bad], clean[0, bad], equal_nan=True)


@pytest.mark.parametrize("experiment, spoil", [("fig3_eligible_users", _zero_link),
                                               ("fig5_sumrate_d2", _rank_one_link)])
def test_drop_that_stays_degenerate_gives_up_mid_chunk(monkeypatch, experiment, spoil):
    cfg = make_config(experiment, {"snr_db_grid": "20"})
    monkeypatch.setattr(harness, "_MAX_REDRAWS", 5)
    calls = _spoil(monkeypatch, "generate_channels", 0,
                   lambda t, args: t == 2, spoil)
    with pytest.raises(DegenerateChannel):
        run_trials(cfg, range(5))
    assert [calls.count(t) for t in range(5)] == [1, 1, 6, 1, 1]
    del calls[:]
    with pytest.raises(DegenerateChannel):
        run_trial(cfg, 20.0, 2)
    assert calls == [2] * 6


def test_run_prints_one_redraw_summary(tmp_path, monkeypatch, capsys):
    # one redraw in five trials is more than 0.1% of them; a clean run has none
    cfg = make_config("fig3_eligible_users", {"snr_db_grid": "20", "trials": "5",
                                              "output_path": str(tmp_path / "f3.csv")})
    run_experiment(cfg)
    assert "degenerate redraws" not in capsys.readouterr().err
    spoiled = []

    def first_draw_of_trial_2(t, args):
        if t != 2 or spoiled:
            return False
        spoiled.append(t)
        return True

    calls = _spoil(monkeypatch, "generate_channels", 0, first_draw_of_trial_2,
                   _zero_link)
    run_experiment(cfg)
    assert [calls.count(t) for t in range(5)] == [1, 1, 2, 1, 1]
    summary = [line for line in capsys.readouterr().err.splitlines()
               if "degenerate redraws" in line]
    assert summary == ["fig3_eligible_users: 1 degenerate redraws over 5 trials"]


def test_fig2_row_layout(tmp_path):
    out = tmp_path / "fig2.csv"
    cfg = make_config("fig2_sumrate_d1", {"trials": "1",
                                          "output_path": str(out)})
    rows = run_experiment(cfg)
    assert len(rows) == 27
    schemes = {r.scheme for r in rows}
    assert schemes == {"oia_perfect", "oia_1bit", "ia_closed_form"}
    for r in rows:
        assert r.trials == 1
        assert r.stderr == 0.0
        if r.scheme == "oia_1bit":
            assert r.K == math.ceil(10.0 ** (r.snr_db / 10.0))
            assert r.threshold_used == optimal_threshold_d1(r.K)
            assert 0.0 <= r.mean_eligible <= r.K
        else:
            assert math.isnan(r.threshold_used)
        if r.scheme == "ia_closed_form":
            assert r.K == 1
            assert math.isnan(r.mean_eligible)
    body = _body(str(out))
    assert body[0].split(",")[:5] == ["experiment", "snr_db", "K", "scheme",
                                      "mean_sum_rate"]
    assert len(body) == 28


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    rows = [ResultRow(experiment="e", snr_db=1.0 / 3.0, K=2, scheme="s",
                      mean_sum_rate=float("nan"), stderr=0.0, outage_rate=0.25,
                      mean_eligible=float("nan"), threshold_used=0.5, trials=7)]
    write_csv(str(path), rows)
    body = _body(str(path))
    cells = body[1].split(",")
    assert cells[1] == "0.333333333"
    assert cells[4] == "nan"
    assert cells[-1] == "7"
    assert glob.glob(str(tmp_path / ".oiasim-*")) == []
    with pytest.raises(ConfigError):
        write_csv(str(path), [])


def test_write_csv_refuses_bad_directory(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    with pytest.raises(IoError):
        write_csv(str(blocker / "out.csv"), [ResultRow(
            experiment="e", snr_db=0.0, K=1, scheme="s", mean_sum_rate=1.0,
            stderr=0.0, outage_rate=0.0, mean_eligible=1.0,
            threshold_used=0.5, trials=1)])


def test_write_csv_failed_rename_keeps_target_and_leaves_no_temp_file(tmp_path,
                                                                     monkeypatch):
    path = tmp_path / "t.csv"
    path.write_text("old table\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoError, match="rename refused"):
        write_csv(str(path), [ResultRow(
            experiment="e", snr_db=0.0, K=1, scheme="s", mean_sum_rate=1.0,
            stderr=0.0, outage_rate=0.0, mean_eligible=1.0,
            threshold_used=0.5, trials=1)])
    assert path.read_text(encoding="utf-8") == "old table\n"
    assert glob.glob(str(tmp_path / ".oiasim-*.csv")) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_csv_gives_the_mode_of_the_umask(tmp_path, umask, mode):
    # the temp file is made 0600; the table gets what open() would give it,
    # and the process umask is left as it was
    path = tmp_path / "t.csv"
    old = os.umask(umask)
    try:
        write_csv(str(path), [ResultRow(
            experiment="e", snr_db=0.0, K=1, scheme="s", mean_sum_rate=1.0,
            stderr=0.0, outage_rate=0.0, mean_eligible=1.0,
            threshold_used=0.5, trials=1)])
        assert os.umask(umask) == umask
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == mode


@pytest.mark.parametrize("experiment, trials", [("fig3_eligible_users", 20),
                                                ("fig5_sumrate_d2", 8),
                                                ("fig6_oia_vs_ia", 8)])
def test_run_experiment_reproducible_across_workers(tmp_path, monkeypatch, experiment,
                                                    trials):
    # the serial body and the pooled one, byte for byte: fig3 at d = 1, fig5
    # the d > 1 selection metric, fig6 the IA quantizer (criterion 10 runs
    # fig2); two CPUs, so the pool opens on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    paths = [tmp_path / f"w{workers}.csv" for workers in (1, 2)]
    for path, workers in zip(paths, (1, 2)):
        run_experiment(make_config(experiment, {"trials": trials,
                                                "output_path": str(path)}),
                       workers=workers)
    assert _body(str(paths[0])) == _body(str(paths[1]))


@pytest.mark.parametrize("workers", [0, -3])
def test_run_experiment_rejects_workers_below_one(tmp_path, workers):
    cfg = make_config("fig2_sumrate_d1",
                      {"trials": "2", "snr_db_grid": "0",
                       "output_path": str(tmp_path / "x.csv")})
    with pytest.raises(ConfigError):
        run_experiment(cfg, workers=workers)


@pytest.mark.parametrize("workers", [1.5, 2.0, "2", True])
def test_run_experiment_rejects_workers_not_an_integer(tmp_path, workers):
    # as the config's int fields do: 1.5 and 2.0 failed in range(), "2" in
    # the comparison with 1, and True ran as one worker
    out = tmp_path / "x.csv"
    cfg = make_config("fig2_sumrate_d1",
                      {"trials": "2", "snr_db_grid": "0", "output_path": str(out)})
    with pytest.raises(ConfigError, match="workers"):
        run_experiment(cfg, workers=workers)
    assert not out.exists()


def test_run_experiment_refuses_a_directory_output_path_before_running(tmp_path,
                                                                      monkeypatch):
    # refused before any trial runs, not by write_csv after the whole run
    monkeypatch.setattr(harness, "run_trials", lambda *args: pytest.fail("trials ran"))
    cfg = make_config("fig3_eligible_users",
                      {"trials": "2", "output_path": str(tmp_path)})
    with pytest.raises(ConfigError, match="is a directory"):
        run_experiment(cfg)


def test_run_experiment_refuses_an_unwritable_output_path_before_running(tmp_path,
                                                                        monkeypatch,
                                                                        capfd):
    # a path below a regular file fails as write_csv would, before any trial
    # runs, and leaves nothing behind
    monkeypatch.setattr(harness, "generate_channels",
                        lambda *args, **kwargs: pytest.fail("trials ran"))
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    cfg = make_config("fig3_eligible_users",
                      {"trials": "2", "output_path": str(blocker / "x.csv")})
    with pytest.raises(IoError, match="cannot write .*x.csv: "):
        run_experiment(cfg)
    assert "task" not in capfd.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "not a directory"
    assert os.listdir(tmp_path) == ["blocker"]


def test_run_experiment_opens_no_pool_for_one_task(tmp_path, monkeypatch, capfd):
    # 1 trial at 2 CPUs is one task: the serial path runs it, with no pool
    # and no idle worker, and writes the serial body
    def refuse_pool(max_workers):
        pytest.fail(f"a pool of {max_workers} workers opened for one task")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    paths = [tmp_path / "two.csv", tmp_path / "one.csv"]
    for workers, path in zip((2, 1), paths):
        cfg = make_config("fig3_eligible_users",
                          {"trials": "1", "output_path": str(path)})
        capfd.readouterr()
        run_experiment(cfg, workers=workers)
        assert capfd.readouterr().err.splitlines() == [
            "fig3_eligible_users: task 1/1 (trials 0-0) done"]
    assert _body(str(paths[0])) == _body(str(paths[1]))


def test_run_experiment_one_pool_capped_at_cpu_count(tmp_path, monkeypatch, capfd):
    pools = []
    mapped = []

    class StubPool:
        """Runs the trials in this process and records how it was opened."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            mapped.append((fn, tasks))
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(harness, "ProcessPoolExecutor", StubPool)
    # the CPUs this process may run on count, not the host's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    reduced = []
    aggregate = harness._aggregate_point

    def recording_aggregate(cfg, snr_db, keys, trial_rows):
        reduced.append((snr_db, trial_rows))
        return aggregate(cfg, snr_db, keys, trial_rows)

    monkeypatch.setattr(harness, "_aggregate_point", recording_aggregate)
    out = tmp_path / "stub.csv"
    cfg = make_config("fig2_sumrate_d1",
                      {"trials": "41", "snr_db_grid": "0,5,10",
                       "output_path": str(out)})
    capfd.readouterr()
    run_experiment(cfg, workers=64)
    assert pools == [2]
    # one map per run, of trial ranges that run every grid point: in
    # order, trials // (4 workers) = 5 trials each but the last, and
    # covering every trial once
    assert len(mapped) == 1
    fn, tasks = mapped[0]
    assert fn is harness.run_trials
    assert all(task[0] is cfg for task in tasks)
    ranges = [trials for _, trials in tasks]
    assert ranges == [range(s, min(s + 5, 41)) for s in range(0, 41, 5)]
    assert [t for trials in ranges for t in trials] == list(range(41))
    # one progress line per task, on stderr
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == len(tasks)
    assert lines[0] == "fig2_sumrate_d1: task 1/9 (trials 0-4) done"
    assert lines[-1] == "fig2_sumrate_d1: task 9/9 (trials 40-40) done"
    serial = tmp_path / "serial.csv"
    run_experiment(dataclasses.replace(cfg, output_path=str(serial)))
    assert pools == [2]
    assert capfd.readouterr().err.splitlines() == [
        "fig2_sumrate_d1: task 1/1 (trials 0-40) done"]
    assert _body(str(out)) == _body(str(serial))
    # the points are reduced in grid order, each on its rows in trial order
    assert [snr_db for snr_db, _ in reduced] == 2 * list(cfg.snr_db_grid)
    for (_, pooled), (_, whole) in zip(reduced[:3], reduced[3:]):
        assert np.array_equal(pooled, whole, equal_nan=True)
    # where the system cannot say, the CPU count caps
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_experiment(cfg, workers=64)
    assert pools == [2, 3]
    # 41 // (4 * 3) = 3 trials per task
    assert [trials for _, trials in mapped[1][1]] == [
        range(s, min(s + 3, 41)) for s in range(0, 41, 3)]


def test_run_experiment_refuses_drop_larger_than_memory(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("generate_channels called for an oversized drop")

    monkeypatch.setattr(harness, "generate_channels", never)
    # K = ceil(P) = 1e13 users at 130 dB
    cfg = make_config("fig2_sumrate_d1",
                      {"snr_db_grid": "130", "output_path": str(tmp_path / "x.csv")})
    with pytest.raises(ConfigError, match="physical memory"):
        run_experiment(cfg)


def test_run_experiment_refuses_rows_larger_than_memory(tmp_path, monkeypatch):
    # 10^11 fig6 trials keep 9 points x 14 keys x 3 float64 rows each,
    # 302 TB held twice, though every drop is small: refused before any
    # task runs, without a list of the trials
    def never(*args, **kwargs):
        raise AssertionError("generate_channels called for an oversized run")

    monkeypatch.setattr(harness, "generate_channels", never)
    cfg = make_config("fig6_oia_vs_ia", {"trials": 10 ** 11,
                                         "output_path": str(tmp_path / "x.csv")})
    with pytest.raises(ConfigError, match=r"need about 6.05e\+14 B, more than"):
        run_experiment(cfg)
    assert not (tmp_path / "x.csv").exists()


def test_run_refused_for_memory_makes_no_output_directory(tmp_path, monkeypatch):
    # the memory check comes before the output probe, which would make the
    # missing directories of the output path
    _physical_memory(monkeypatch, 1000)
    out = tmp_path / "new" / "x.csv"
    assert main(["run", "fig3_eligible_users", "--trials", "2", "--out", str(out)]) == 2
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("experiment", ["fig2_sumrate_d1", "fig3_eligible_users",
                                        "fig5_sumrate_d2", "fig6_oia_vs_ia"])
def test_key_count_is_the_keys_a_trial_gives(experiment):
    # the memory check counts the stored rows by the registry's key_count
    cfg = make_config(experiment, {"snr_db_grid": "10"})
    assert (harness.EXPERIMENTS[experiment].key_count(cfg.k_values[0])
            == len(run_trial(cfg, 10.0, 0)[0]))


def _cfg_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def _physical_memory(monkeypatch, have):
    real_sysconf = os.sysconf

    def sysconf(name):
        return {"SC_PHYS_PAGES": have, "SC_PAGE_SIZE": 1}.get(name) or real_sysconf(name)

    monkeypatch.setattr(os, "sysconf", sysconf)


def test_drop_check_counts_the_drop_and_its_metrics(tmp_path, monkeypatch):
    # a d = 1 drop of K users holds 16 B per channel entry (9 K nr nt of
    # them) and 3 K float64 metrics, and each trial stores 3 float64 per
    # key and point, held twice: 312,096 B at K = 1000 and 2 trials, which
    # fits a memory of exactly that size; K = 1001 or a third trial does
    # not, and is refused before any drop is drawn
    _physical_memory(monkeypatch, 16 * 9 * 1000 * 2 + 8 * 3 * 1000 + 2 * 8 * 3 * 2)
    out = tmp_path / "fits.csv"
    assert main(["run", "fig3_eligible_users", "--config", str(_cfg_file(
        tmp_path, "snr_db_grid = 0\nK_rule = fixed:1000\ntrials = 2\n")),
        "--out", str(out)]) == 0
    assert out.exists()

    def never(*args, **kwargs):
        raise AssertionError("generate_channels called for an oversized drop")

    monkeypatch.setattr(harness, "generate_channels", never)
    assert main(["run", "fig3_eligible_users", "--config", str(_cfg_file(
        tmp_path, "snr_db_grid = 0\nK_rule = fixed:1001\ntrials = 2\n")),
        "--out", str(tmp_path / "never.csv")]) == 2
    assert main(["run", "fig3_eligible_users", "--config", str(_cfg_file(
        tmp_path, "snr_db_grid = 0\nK_rule = fixed:1000\ntrials = 3\n")),
        "--out", str(tmp_path / "never.csv")]) == 2
    assert not (tmp_path / "never.csv").exists()


def test_row_check_counts_the_rows_twice(tmp_path, monkeypatch):
    # the run holds its rows alongside their concatenation: at K = 1 the
    # 1000 trials' rows (24,000 B) dwarf the 288 B drop and its 24 B of
    # metrics; a memory that holds one copy of the rows is refused before
    # any drop is drawn, one that holds two runs
    config = _cfg_file(tmp_path, "snr_db_grid = 0\nK_rule = fixed:1\ntrials = 1000\n")
    one_copy = 16 * 18 + 8 * 3 + 8 * 3 * 1000
    _physical_memory(monkeypatch, one_copy + 8 * 3 * 1000)
    out = tmp_path / "fits.csv"
    assert main(["run", "fig3_eligible_users", "--config", str(config),
                 "--out", str(out)]) == 0
    assert out.exists()

    def never(*args, **kwargs):
        raise AssertionError("generate_channels called for an oversized run")

    monkeypatch.setattr(harness, "generate_channels", never)
    _physical_memory(monkeypatch, one_copy)
    cfg = make_config("fig3_eligible_users", load_config_file(str(config)))
    with pytest.raises(ConfigError, match="physical memory"):
        run_experiment(cfg)
    assert not os.path.exists(cfg.output_path)


def test_pooled_run_counts_a_drop_per_worker(tmp_path, monkeypatch, capsys):
    # the workers reach the largest grid point together: a memory between
    # one and two drops of K = 1000 with their metrics (312,000 B each),
    # plus 2 trials' rows, refuses 2 workers before the output probe makes
    # any directory, and runs 1, or 2 asked for over a single trial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    drop = 16 * 9 * 1000 * 2 + 8 * 3 * 1000
    _physical_memory(monkeypatch, drop + drop // 2)
    config = str(_cfg_file(tmp_path, "snr_db_grid = 0\nK_rule = fixed:1000\ntrials = 2\n"))
    out = tmp_path / "new" / "x.csv"
    assert main(["run", "fig3_eligible_users", "--config", config, "--workers", "2",
                 "--out", str(out)]) == 2
    assert "on 2 worker(s)" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    assert main(["run", "fig3_eligible_users", "--config", config, "--workers", "1",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert main(["run", "fig3_eligible_users", "--config", config, "--workers", "2",
                 "--trials", "1", "--out", str(tmp_path / "one.csv")]) == 0


@pytest.mark.parametrize("overrides, message", [
    # nr = 2d and nt = d follow from d: even the values they take are
    # unknown keys
    ({"nr": "4"}, "unknown config key 'nr'"),
    ({"nt": "2"}, "unknown config key 'nt'"),
    # so does the threshold design
    pytest.param({"threshold_method": "numeric"},
                 "unknown config key 'threshold_method'", id="threshold_method"),
])
def test_run_refuses_bad_dimensions_before_any_drop(tmp_path, monkeypatch,
                                                    overrides, message):
    def never(*args, **kwargs):
        raise AssertionError("work started for an impossible configuration")

    monkeypatch.setattr(harness, "generate_channels", never)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", never)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # refused while parsing, so neither a run nor run_trials gets a config
    with pytest.raises(ConfigError, match=message):
        make_config("fig5_sumrate_d2",
                    dict(overrides, output_path=str(tmp_path / "x.csv")))
    assert not (tmp_path / "x.csv").exists()


def test_design_dimension_limit_is_where_manifold_constants_fail():
    # c_{2d,d} is a positive double up to d = 18 and underflows to 0 from
    # d = 19 on, the limit a config that designs a threshold is held to
    assert MAX_D == 18
    for d in range(1, 19):
        assert ball_volume(d) > 0
    for d in (19, 20, 30):
        with pytest.raises(ShapeMismatch):
            ball_volume(d)


def test_design_dimension_refused_while_parsing(tmp_path, monkeypatch):
    assert make_config("fig5_sumrate_d2", {"d": 18}).d == 18

    def never(*args, **kwargs):
        raise AssertionError("generate_channels called for an impossible d")

    monkeypatch.setattr(harness, "generate_channels", never)
    out = tmp_path / "never.csv"
    assert main(["run", "fig5_sumrate_d2", "--config", str(_cfg_file(
        tmp_path, "d = 19\ntrials = 2\n")), "--out", str(out)]) == 2
    assert not out.exists()
    # by every experiment that designs a threshold; the check does not
    # build G(2d, d), so a huge d is refused at once
    start = time.perf_counter()
    for name, spec in EXPERIMENTS.items():
        for d in (19, 10 ** 9):
            if spec.designs:
                with pytest.raises(ConfigError, match=f"d={d}"):
                    make_config(name, {"d": d})
    assert time.perf_counter() - start < 1.0
    assert main(["threshold", "--method", "numeric", "--d", "1000000000",
                 "--K", "10"]) == 2
    assert time.perf_counter() - start < 1.0
    # fig7 designs no threshold and takes any d
    assert make_config("fig7_complexity_table", {"d": 10 ** 9}).d == 10 ** 9


def test_draw_ia_channels_bit_identical_to_reference_draw():
    for seed in (0, 3, 12345):
        ref_rng = np.random.default_rng(seed)
        ref = (ref_rng.standard_normal((3, 3, 2, 2))
               + 1j * ref_rng.standard_normal((3, 3, 2, 2))) / np.sqrt(2.0)
        rng = np.random.default_rng(seed)
        assert np.array_equal(harness._draw_ia_channels(rng), ref)
        assert rng.random() == ref_rng.random()


# sha256 of the CSV body (everything after the generated_at line) of 20-trial
# runs at the registry seed: the determinism contract of every Monte Carlo
# trial path (d = 1 with closed-form IA, d = 1 alone, d > 1, limited-feedback
# IA). Float results depend on the numpy/scipy builds, so other versions skip
_PINNED_VERSIONS = ("2.4.6", "1.17.1")
_PINNED_BODIES = {
    "fig5_sumrate_d2": "5eb30291f9458c6d5d241e6ab0cb3b79f7ddad82c89654f8f9e32ecd98851e27",
    "fig2_sumrate_d1": "3684894873c90d9f913b089616836bc69d3276ce9f4a954f08e88895c9308991",
    "fig3_eligible_users": "7fee818c48b190b62ec218d4aef685cc7a2786e3e8db624b215a5c3643b2ae86",
    "fig6_oia_vs_ia": "a65f10b189469a24064e8b8534fb6790b6e7256f546fe6d35d17b7c3738405da",
}


@pytest.mark.parametrize("experiment", sorted(_PINNED_BODIES))
def test_csv_body_digest_pinned(tmp_path, experiment):
    if (np.__version__, scipy.__version__) != _PINNED_VERSIONS:
        pytest.skip(f"digests pinned under numpy {_PINNED_VERSIONS[0]} and "
                    f"scipy {_PINNED_VERSIONS[1]}, running numpy "
                    f"{np.__version__} and scipy {scipy.__version__}")
    out = tmp_path / "pinned.csv"
    run_experiment(make_config(experiment, {"trials": "20", "output_path": str(out)}))
    with open(out, "rb") as fh:
        assert fh.readline().startswith(b"# generated_at=")
        body = fh.read()
    assert hashlib.sha256(body).hexdigest() == _PINNED_BODIES[experiment]


def test_fig4_threshold_table(tmp_path):
    out = tmp_path / "fig4.csv"
    cfg = make_config("fig4_threshold_compare", {"output_path": str(out)})
    rows = run_experiment(cfg)
    assert len(rows) == 15
    x_max = support_edge(2)
    by_key = {(r.K, r.scheme): r.threshold_used for r in rows}
    for K in (100, 316, 1000, 3162, 10000):
        for method in ("numeric", "lambert", "asymptotic"):
            x = by_key[(K, method)]
            assert 0.0 < x <= x_max
        assert by_key[(K, "asymptotic")] < by_key[(K, "numeric")]
    for r in rows:
        assert math.isnan(r.snr_db)
        assert r.trials == 0


def test_fig4_writes_nan_for_a_design_that_refuses_its_k(tmp_path):
    # at K = 1 and d = 2 lambert and asymptotic raise TooFewUsers, while
    # numeric takes x_max = 2^(1/4): a lone user is always eligible
    out = tmp_path / "fig4.csv"
    run_experiment(make_config("fig4_threshold_compare", {
        "K_rule": "fixed:1,100", "output_path": str(out)}))
    threshold_used = {tuple(line.split(",")[2:4]): line.split(",")[8]
                      for line in _body(str(out))[1:]}
    assert len(threshold_used) == 6
    assert threshold_used[("1", "numeric")] == "1.18920712"
    assert threshold_used[("1", "lambert")] == "nan"
    assert threshold_used[("1", "asymptotic")] == "nan"
    assert all(threshold_used[("100", m)] != "nan"
               for m in ("numeric", "lambert", "asymptotic"))


def test_fig7_flop_table(tmp_path):
    out = tmp_path / "fig7.csv"
    cfg = make_config("fig7_complexity_table", {"output_path": str(out)})
    rows = run_experiment(cfg)
    assert len(rows) == 60
    by_key = {(r.scheme, r.n_bits): r.flops for r in rows}
    assert by_key[("oia_1bit", 10)] == 600
    assert by_key[("ia_joint", 10)] == 245760
    assert by_key[("ia_individual", 10)] == 7680
    body = _body(str(out))
    assert body[0] == "scheme,n_bits,flops"


@pytest.mark.parametrize("d", [1, 2])
def test_fig7_counts_exact_at_every_accepted_budget(tmp_path, d):
    # OIA at nr = 2d, IA at the 2 x 2 links of the IA baseline; the counts
    # are Python ints written with str(), exact up to the largest budget
    # the bits rule accepts
    out = tmp_path / "fig7.csv"
    run_experiment(make_config("fig7_complexity_table", {
        "d": d, "K_rule": "fixed:64,2046", "output_path": str(out)}))
    expected = ["scheme,n_bits,flops"]
    for b in (64, 2046):
        expected += [f"oia_1bit,{b},{b * (64 * d ** 3 - 4 * d ** 2)}",
                     f"ia_joint,{b},{2 ** b * 240}",
                     f"ia_individual,{b},{2 ** (b // 2) * 240}"]
    assert _body(str(out)) == expected


def test_ia_rows_present_in_fig6_trial():
    cfg = make_config("fig6_oia_vs_ia", {"snr_db_grid": "20"})
    key_list, rows, _ = run_trial(cfg, 20.0, 0)
    keys = set(key_list)
    assert len(keys) == len(key_list) == len(rows) == 14
    for b in (10, 16, 24, 28, 32, 36, 40):
        assert ("oia_1bit", b) in keys
        assert ("ia_individual", b) in keys
    assert ("oia_perfect", 10) not in keys
