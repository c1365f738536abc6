"""The benchmark's layer tracer (perfbench/layertrace.py) still fits the
library: every function it patches resolves, a traced run writes the CSV
body of an untraced one, and it sees every threshold design."""

import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from oiasim import harness, make_config, run_experiment

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for module_name, attr, _ in _layertrace().TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_traced_run_writes_the_untraced_csv_body(tmp_path):
    layertrace = _layertrace()
    bodies = []
    for traced in (False, True):
        out = tmp_path / f"traced{int(traced)}.csv"
        cfg = make_config("fig5_sumrate_d2", {"trials": "2", "snr_db_grid": "20",
                                              "output_path": str(out)})
        tracer = layertrace.Tracer()
        if traced:
            tracer.install()
        try:
            run_experiment(cfg)
        finally:
            tracer.restore()
        bodies.append(out.read_text(encoding="utf-8").splitlines()[1:])
    assert bodies[0] == bodies[1]
    metrics = layertrace.summarize(tracer)
    assert metrics["channel.generate_channels.calls"] == 2
    assert metrics["channel.users_scored"] == 3 * 2 * 100
    # the selection span is live: one stacked select_one_bit call per chunk,
    # and the 2-trial run is one chunk
    assert metrics["oia.select_one_bit.calls"] == 1
    assert harness.generate_channels is importlib.import_module(
        "oiasim.channel").generate_channels


def test_pool_counter_sees_one_pool_per_run(tmp_path, monkeypatch):
    layertrace = _layertrace()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    bodies = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.csv"
        cfg = make_config("fig3_eligible_users", {"trials": "3", "snr_db_grid": "0,10,20",
                                                  "output_path": str(out)})
        counter = layertrace.PoolCounter()
        if workers > 1:
            counter.install()
        try:
            run_experiment(cfg, workers=workers)
        finally:
            counter.restore()
        bodies.append(out.read_text(encoding="utf-8").splitlines()[1:])
    assert bodies[0] == bodies[1]
    assert counter.pool_starts == 1
    assert counter.ipc_bytes > 0


@pytest.mark.parametrize("experiment, overrides, distinct_ks", [
    ("fig3_eligible_users", {}, 9),        # d = 1: K = ceil(P) at 0..40 dB
    ("fig5_sumrate_d2", {"snr_db_grid": "20"}, 3),
])
def test_traced_design_calls_count_each_distinct_K(tmp_path, experiment, overrides,
                                                   distinct_ks):
    # every design runs through a name the tracer patches, once per K on an
    # empty cache; a design called under any other name would go uncounted
    layertrace = _layertrace()
    harness.design_threshold.cache_clear()
    cfg = make_config(experiment, {"trials": "2", "output_path": str(tmp_path / "out.csv"),
                                   **overrides})
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        run_experiment(cfg)
    finally:
        tracer.restore()
    assert len({K for ks in cfg.k_values for K in ks}) == distinct_ks
    assert layertrace.summarize(tracer)["threshold.design.calls"] == distinct_ks
