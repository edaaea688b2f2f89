"""The scripts under scripts/ run to completion on small inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from sphero.homology import HomologyResult

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [("nu_grid.py", ["--nmax", "6"]),
                                         ("desclink_census.py", ["--nmax", "3"]),
                                         ("desclink_census.py", ["--q", "3", "--nmax", "6",
                                                                 "--subgroups", "sym,triv,213,231"])])
def test_script_exits_zero(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_census_compares_every_degree(monkeypatch):
    # at (2,sym,6) the full order complex has dimension 4 and the star's 2: a census
    # that reduces only through degree 2 never sees an H~3 that the full poset alone has
    spec = importlib.util.spec_from_file_location("desclink_census", ROOT / "scripts" / "desclink_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    real = census.reduced_homology

    def with_h3(cx, through_dim):
        res = real(cx, through_dim)
        if through_dim < 3:
            return res
        assert res.betti[3] == 0
        return HomologyResult(res.betti[:3] + (1,) + res.betti[4:], res.torsion)

    monkeypatch.setattr(census, "reduced_homology", with_h3)
    monkeypatch.setattr(sys, "argv", ["desclink_census.py", "--q", "2", "--subgroups", "sym",
                                      "--nmax", "6"])
    assert census.main() == 1
