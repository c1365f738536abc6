"""The numpy-only import and run path.

`import oiasim`, the registry, the closed-form threshold and every run
that designs no scipy-backed threshold must leave scipy unloaded; a config
with a scipy-backed design loads its solver while it is parsed, so that
its run imports nothing more. Each case runs in a fresh interpreter and
reads sys.modules there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oiasim

SRC = str(Path(oiasim.__file__).resolve().parent.parent)

_SCIPY = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
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
    done = subprocess.run([sys.executable, "-c", _SCIPY + script], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


_NUMPY_ONLY = {
    "import": "import oiasim\n",
    "cli_list": _CLI.format(argv=["list"]),
    "cli_closed_form": _CLI.format(argv=["threshold", "--method", "closed_form_d1",
                                         "--d", "1", "--K", "100"]),
    "fig2": ("fig2_sumrate_d1", {}, 1),
    "fig3_2_workers": ("fig3_eligible_users", {}, 2),
    "fig6_perturbation": ("fig6_oia_vs_ia", {"K_rule": "fixed:10,28"}, 1),
    "fig7": ("fig7_complexity_table", {}, 1),
    # fig7 designs no threshold, whatever threshold_method says
    "fig7_lambert": ("fig7_complexity_table", {"threshold_method": "lambert"}, 1),
}


@pytest.mark.parametrize("case", sorted(_NUMPY_ONLY))
def test_loads_no_scipy(tmp_path, case):
    script = _NUMPY_ONLY[case]
    if isinstance(script, tuple):
        experiment, overrides, workers = script
        script = _RUN.format(experiment=experiment, overrides=overrides,
                             workers=workers, out=str(tmp_path / "out.csv"))
    assert _run(script + "print(json.dumps(scipy_modules()))\n", tmp_path) == []


def test_scipy_backed_design_loads_its_solver_at_parse_time(tmp_path):
    # fig5 designs with its threshold_method; fig4 designs with all three
    # scipy-backed methods, whatever its threshold_method
    out = str(tmp_path / "out.csv")
    for experiment, overrides in (
            ("fig5_sumrate_d2", {}),
            ("fig4_threshold_compare", {"threshold_method": "closed_form_d1",
                                        "d": 1})):
        parsed, added = _run(f"""
from oiasim import make_config, run_experiment
cfg = make_config({experiment!r}, dict(trials=2, output_path={out!r}, **{overrides!r}))
parsed = scipy_modules()
run_experiment(cfg)
print(json.dumps([parsed, sorted(set(scipy_modules()) - set(parsed))]))
""", tmp_path)
        assert "scipy.optimize" in parsed
        assert added == []
