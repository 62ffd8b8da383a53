"""Golden output: the shipped figure configs regenerate the committed
out/fig{1,2,3}.{csv,svg} byte for byte."""

from pathlib import Path

import pytest

from qplasma.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_shipped_figures_byte_identical(name, tmp_path):
    rc = main(["sweep", "--config", str(ROOT / "configs" / f"{name}.cfg"),
               "--output", str(tmp_path / name)])
    assert rc == 0
    for suffix in (".csv", ".svg"):
        got = (tmp_path / name).with_suffix(suffix).read_bytes()
        assert got == (ROOT / "out" / name).with_suffix(suffix).read_bytes(), f"{name}{suffix} differs"
