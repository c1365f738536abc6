"""The numpy-only import and run path.

`import oiasim`, the registry, the numeric threshold at d = 1 (the closed
form) and every run at d = 1 must leave scipy unloaded; a config that
designs a threshold at d > 1 loads its solver while it is parsed, so that
its run imports nothing more. Nothing but a run with more than one worker
loads the process pool (concurrent.futures.process and multiprocessing;
scipy's import of numpy.testing loads the thread-pool base of
concurrent.futures, so that is not checked). Each case runs in a fresh
interpreter and reads sys.modules there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oiasim

SRC = str(Path(oiasim.__file__).resolve().parent.parent)

_PRELUDE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
def pool_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                  or m == "concurrent.futures.process")
"""

_RUN = """
from oiasim import make_config, run_experiment
cfg = make_config({experiment!r}, dict(trials=2, output_path={out!r}, **{overrides!r}))
run_experiment(cfg, workers={workers})
"""

_CLI = """
from oiasim.cli import main
assert main({argv!r}) == 0
"""


def _run(script, cwd):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _PRELUDE + script], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


_NUMPY_ONLY = {
    "import": "import oiasim\n",
    "cli_list": _CLI.format(argv=["list"]),
    "cli_closed_form": _CLI.format(argv=["threshold", "--method", "numeric",
                                         "--d", "1", "--K", "100"]),
    "fig2": ("fig2_sumrate_d1", {}, 1),
    "fig3_2_workers": ("fig3_eligible_users", {}, 2),
    "fig4_d1": ("fig4_threshold_compare", {"d": 1}, 1),
    "fig6_perturbation": ("fig6_oia_vs_ia", {"K_rule": "fixed:10,28"}, 1),
    "fig7": ("fig7_complexity_table", {}, 1),
}


_SERIAL = {
    "import": "import oiasim\n",
    "cli_list": _CLI.format(argv=["list"]),
    "make_config": "from oiasim import make_config\nmake_config('fig3_eligible_users')\n",
    "fig2": ("fig2_sumrate_d1", {}, 1),
    "fig5": ("fig5_sumrate_d2", {}, 1),
    "fig6": ("fig6_oia_vs_ia", {}, 1),
}


def _script(case, tmp_path):
    """A case's script: its code, or a 2-trial run of (experiment,
    overrides, workers) that writes tmp_path/out.csv."""
    if isinstance(case, str):
        return case
    experiment, overrides, workers = case
    return _RUN.format(experiment=experiment, overrides=overrides,
                       workers=workers, out=str(tmp_path / "out.csv"))


@pytest.mark.parametrize("case", sorted(_NUMPY_ONLY))
def test_loads_no_scipy(tmp_path, case):
    script = _script(_NUMPY_ONLY[case], tmp_path)
    assert _run(script + "print(json.dumps(scipy_modules()))\n", tmp_path) == []


@pytest.mark.parametrize("case", sorted(_SERIAL))
def test_serial_path_loads_no_process_pool(tmp_path, case):
    script = _script(_SERIAL[case], tmp_path)
    assert _run(script + "print(json.dumps(pool_modules()))\n", tmp_path) == []


def test_process_pool_loads_with_a_parallel_run(tmp_path):
    # the CPUs the run may use are set to two, so the pool starts on any host
    bodies = []
    for workers in (1, 2):
        script = ("import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"
                  "os.cpu_count = lambda: 2\n"
                  + _script(("fig3_eligible_users", {}, workers), tmp_path)
                  + "print(json.dumps(pool_modules()))\n")
        loaded = _run(script, tmp_path)
        assert ("concurrent.futures.process" in loaded) == (workers > 1)
        assert ("multiprocessing" in loaded) == (workers > 1)
        bodies.append((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[1:])
    assert bodies[0] == bodies[1]


def test_scipy_backed_design_loads_its_solver_at_parse_time(tmp_path):
    # fig5 designs numeric and fig4 all three designs, each at its d = 2
    out = str(tmp_path / "out.csv")
    for experiment, overrides in (
            ("fig5_sumrate_d2", {}),
            ("fig4_threshold_compare", {})):
        parsed, added = _run(f"""
from oiasim import make_config, run_experiment
cfg = make_config({experiment!r}, dict(trials=2, output_path={out!r}, **{overrides!r}))
parsed = scipy_modules()
run_experiment(cfg)
print(json.dumps([parsed, sorted(set(scipy_modules()) - set(parsed))]))
""", tmp_path)
        assert "scipy.optimize" in parsed
        assert added == []
