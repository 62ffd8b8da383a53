"""Golden output with gaps: sweeps whose grids hold a skipped q = 0 node and
nudged branch points write CSV and SVG text byte for byte as pinned here
(sha256 of the text), so the empty CSV cells and the polylines broken at a
gap keep their bytes.  The shipped figures (test_golden.py) have no gap."""

import hashlib

import pytest

from qplasma.sweep import SweepConfig, run_sweep

CASES = {
    # x = 0.25: branch points 2(1 -+ x) = 1.5 and 2.5 are nodes of these dyadic grids
    "bgk-3-rows": (
        SweepConfig(model="bgk", x=0.25, y=(0.0, 0.01, 0.1), q_min=-1.0, q_max=3.0, q_steps=33, xp=1.0,
                    output="unused"),
        "0b6c5b586f08355a7324acd353110454ecf0fce5c1e48dfe0bc527e1f97d1f32",
        "2f3b3b406919eb8675d11e0feabe4ca70f6e5281c210ce87af4850a18c45025b",
    ),
    "lindhard-leading-gap": (
        SweepConfig(model="lindhard", x=0.25, y=(0.0,), q_min=0.0, q_max=3.0, q_steps=25, xp=1.0, output="unused"),
        "429e2dc1afac099f879bc2036c34a728d2e4d56ceed43f43370a8d5a81dd3cc1",
        "39284d3bd6a9ca7727e6b84c473d31c9b9d659cf8b3fbe1cb6c62630dfc467b3",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_sweep_with_gaps_byte_identical(name):
    cfg, csv_sha, svg_sha = CASES[name]
    result = run_sweep(cfg, write=False)
    assert [p.q for p in result.skipped] == [0.0] * len(cfg.y)
    assert [orig for orig, _ in result.nudged] == [1.5, 2.5]
    assert hashlib.sha256(result.csv_text().encode()).hexdigest() == csv_sha
    assert hashlib.sha256(result.svg_text().encode()).hexdigest() == svg_sha
