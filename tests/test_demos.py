"""Smoke test: each narrative demo script runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def test_all_four_demos_found():
    assert DEMOS == ["fixed_axis_sweep.py", "geometry_tour.py",
                     "homotopy_classes.py", "single_qubit_cycle.py"]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if script == "fixed_axis_sweep.py":  # writes its grid into the working directory
        assert (tmp_path / "sweep.csv").read_text().startswith("lambda0,theta,")
