"""The demo scripts run to completion against the current API.

Each demo runs in a fresh interpreter with the package that the tests
import on its path. demos/01_subspace_geometry.py is left out because it
takes about 22 s (Monte Carlo geometry checks), longer than the other
four together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oiasim

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(Path(oiasim.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", ["02_threshold_design.py",
                                  "03_one_bit_scheduling.py",
                                  "04_alignment_vs_opportunism.py",
                                  "05_experiment_harness.py"])
def test_demo_exits_0(tmp_path, name):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
