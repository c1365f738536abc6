"""The demo scripts run to completion against the current API, the ones
whose stdout is pinned print the same bytes, and README's Python example
prints what its comment says.

Each demo runs in a fresh interpreter with the package that the tests
import on its path. demos/01_subspace_geometry.py is left out because it
takes about 22 s (Monte Carlo geometry checks), longer than the other
four together.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import oiasim

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"
SRC = str(Path(oiasim.__file__).resolve().parent.parent)

# sha256 of the stdout; float output depends on the numpy/scipy builds,
# so other versions skip
_PINNED_VERSIONS = ("2.4.6", "1.17.1")
_PINNED_STDOUT = {
    "02_threshold_design.py":
        "b380c49232adc14f2bed93e91a537a60bc1c2ce998cdeddb6a9df36dda10d44b",
    "03_one_bit_scheduling.py":
        "54016e935b36da45eab5a1160afa3ab29eec6dae10709e35e4a881a82e7f5b2b",
}


def _skip_unless_pinned_versions():
    if (np.__version__, scipy.__version__) != _PINNED_VERSIONS:
        pytest.skip(f"pinned under numpy {_PINNED_VERSIONS[0]} and scipy "
                    f"{_PINNED_VERSIONS[1]}")


def _python(args, cwd):
    """Run python with args in cwd, with the tested package on its path."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def run_demo(tmp_path_factory):
    """Run a demo once per module in its own directory; later calls for the
    same demo return the first run."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = _python([str(DEMOS / name)], tmp_path_factory.mktemp("demo"))
        return runs[name]
    return run


@pytest.mark.parametrize("name", ["02_threshold_design.py",
                                  "03_one_bit_scheduling.py",
                                  "04_alignment_vs_opportunism.py",
                                  "05_experiment_harness.py"])
def test_demo_exits_0(run_demo, name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr[-2000:].decode(errors="replace")


@pytest.mark.parametrize("name", sorted(_PINNED_STDOUT))
def test_demo_stdout_pinned(run_demo, name):
    _skip_unless_pinned_versions()
    done = run_demo(name)
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == _PINNED_STDOUT[name]


def test_readme_example_prints_its_comment(tmp_path):
    # the block's last line is a print whose comment starts with its output
    _skip_unless_pinned_versions()
    text = README.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    comment = block.rstrip().splitlines()[-1].split("# ", 1)[1]
    done = _python(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:].decode(errors="replace")
    assert done.stdout.decode() == comment.split(":", 1)[0] + "\n"
