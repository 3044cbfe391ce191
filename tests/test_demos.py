"""Smoke runs of the demo scripts that drive the engine and the sweep.

Each demo writes its outputs beside its own file, so it runs from a copy in
a temporary directory.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_autodiff_basics.py", "05_sensitivity_sweep.py"])
def test_demo_runs(script, tmp_path):
    copy = tmp_path / script
    shutil.copy(ROOT / "demos" / script, copy)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
