"""The scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [("nu_grid.py", ["--nmax", "6"]),
                                         ("desclink_census.py", ["--nmax", "3"]),
                                         ("desclink_census.py", ["--q", "3", "--nmax", "5",
                                                                 "--subgroups", "sym,triv,213"])])
def test_script_exits_zero(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
