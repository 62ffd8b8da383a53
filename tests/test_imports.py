"""Importing the package loads none of its modules, and each CLI command
loads only the modules it runs: only ``verify`` loads numpy and scipy,
whose import is most of a CLI call's wall time, and ``compare`` and ``kohn``
load neither ``dataclasses`` nor ``inspect``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qplasma

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints [exit status or None, the qplasma modules loaded, whether numpy or
# scipy is loaded, whether dataclasses or inspect is loaded] of
# `import qplasma` and, given arguments, one CLI call.
_SCRIPT = r"""
import contextlib, io, json, sys
import qplasma
rc = None
if sys.argv[1:]:
    import qplasma.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = qplasma.cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "qplasma"),
                  any(m.split(".")[0] in ("numpy", "scipy") for m in sys.modules),
                  any(m in ("dataclasses", "inspect") for m in sys.modules)]))
"""

_CLI = ["qplasma", "qplasma.cli", "qplasma.errors", "qplasma.kernels"]
_POINT = ["--x", "0.3", "--y", "0.1", "--q", "1", "--xp", "1"]
_SWEEP = ["sweep", "--model", "bgk", "--x", "0", "--y", "0,0.01", "--q", "1.5:2.5:11", "--xp", "1",
          "--format", "both", "--output", "out"]


@pytest.mark.parametrize("argv, rc, modules, heavy, typed", [
    ([], None, ["qplasma"], False, False),
    (["compare", *_POINT], 0, _CLI, False, False),
    (["compare", *_POINT, "--json"], 0, _CLI, False, False),
    (["kohn", "--x", "0.01"], 0, _CLI, False, False),
    (["kohn", "--omega", "1e14", "--kf", "1e10", "--vf", "1e6"], 0, _CLI, False, False),
    (_SWEEP, 0, [*_CLI, "qplasma.svg", "qplasma.sweep"], False, True),
    (["sweep", "--config", "bad.cfg", "--output", "bad"], 2, [*_CLI, "qplasma.svg", "qplasma.sweep"], False, True),
    (["verify", "--points", "5"], 0, [*_CLI, "qplasma.dielectric", "qplasma.quadrature"], True, True),
], ids=["import", "compare", "compare-json", "kohn", "kohn-physical", "sweep", "sweep-bad-config", "verify"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, rc, modules, heavy, typed):
    (tmp_path / "bad.cfg").write_text("model bgk\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    p = subprocess.run([sys.executable, "-c", _SCRIPT, *argv], env=env, cwd=tmp_path,
                       capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(p.stdout) == [rc, sorted(modules), heavy, typed]
    if argv == _SWEEP:
        assert (tmp_path / "out.csv").exists() and (tmp_path / "out.svg").exists()


def test_package_resolves_every_public_name_lazily():
    names = qplasma._NAMES
    assert set(names) <= set(dir(qplasma))  # before the names are bound on first use
    assert sorted(qplasma.__all__) == sorted(names)
    for name, module in names.items():
        assert getattr(qplasma, name) is vars(importlib.import_module(f"qplasma.{module}"))[name]
    quadrature = {name for name, module in names.items() if module == "quadrature"}
    assert quadrature == set(importlib.import_module("qplasma.quadrature").__all__)
    namespace: dict = {}
    exec("from qplasma import *", namespace)
    assert set(names) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qplasma.not_a_name
