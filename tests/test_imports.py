"""Importing the package, and every CLI command but ``verify``, loads
neither numpy nor scipy: only the quadrature oracle needs them, and their
import is most of a CLI call's wall time."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qplasma
from qplasma import quadrature

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = r"""
import contextlib, io, json, sys
import qplasma, qplasma.cli

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

steps = {"import qplasma, qplasma.cli": heavy()}
for argv in (
    ["compare", "--x", "0.3", "--y", "0.1", "--q", "1", "--xp", "1"],
    ["compare", "--x", "0.3", "--y", "0.1", "--q", "1", "--xp", "1", "--json"],
    ["kohn", "--x", "0.01"],
    ["kohn", "--omega", "1e14", "--kf", "1e10", "--vf", "1e6"],
    ["sweep", "--model", "bgk", "--x", "0", "--y", "0,0.01", "--q", "1.5:2.5:11", "--xp", "1",
     "--format", "both", "--output", sys.argv[1]],
):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = qplasma.cli.main(argv)
    steps[" ".join(argv[:1] + argv[-1:])] = [rc, heavy()]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = qplasma.cli.main(["verify", "--points", "5"])
steps["verify"] = [rc, out.getvalue()]
print(json.dumps(steps))
"""


def test_package_and_cli_load_neither_numpy_nor_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    p = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path / "sweep")], env=env, cwd=tmp_path,
                       capture_output=True, text=True, timeout=120, check=True)
    steps = json.loads(p.stdout)
    verify_rc, verify_out = steps.pop("verify")
    assert steps.pop("import qplasma, qplasma.cli") == []
    assert len(steps) == 5
    for step, (rc, heavy) in steps.items():
        assert (step, rc, heavy) == (step, 0, [])
    assert (tmp_path / "sweep.csv").exists() and (tmp_path / "sweep.svg").exists()
    assert verify_rc == 0
    assert "PASS" in verify_out


def test_package_resolves_every_quadrature_name_lazily():
    for name in quadrature.__all__:
        assert getattr(qplasma, name) is getattr(quadrature, name)
    assert set(qplasma._QUADRATURE_NAMES) == set(quadrature.__all__)
