"""A sweep row gives, node for node, what the scalar model gives at that node:
the same value to the last bit (signed zeros included) or the same error
class and text; y < 0 or xp < 0 raises the scalar's ValueError out of the row."""

import importlib.util
import math
from pathlib import Path

import pytest

from qplasma.dielectric import (
    DimensionlessPointA,
    branch_points_q,
    epsilon_collisional_a,
    epsilon_lindhard,
    epsilon_mermin,
)
from qplasma.errors import QplasmaError
from qplasma.sweep import MODELS

ROOT = Path(__file__).resolve().parent.parent

SCALAR = {
    "bgk": lambda x, y, q, xp: epsilon_collisional_a(DimensionlessPointA(x, y, q, xp)).epsilon,
    "mermin": lambda x, y, q, xp: epsilon_mermin(DimensionlessPointA(x, y, q, xp)).epsilon,
    "lindhard": lambda x, y, q, xp: epsilon_lindhard(x, q, xp).epsilon,
}


def _outcome(value):
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    return value.real.hex(), value.imag.hex()


def _scalar(model, x, y, q, xp):
    try:
        return _outcome(SCALAR[model](x, y, q, xp))
    except (QplasmaError, ValueError) as exc:
        return _outcome(exc)


def _row(model, x, y, qs, xp):
    try:
        return [_outcome(v) for v in MODELS[model](x, y, qs, xp)]
    except ValueError as exc:
        return [_outcome(exc)] * len(qs)


def _check(model, x, y, qs, xp):
    assert _row(model, x, y, qs, xp) == [_scalar(model, x, y, q, xp) for q in qs], (model, x, y, qs, xp)


def _row_draws(seed, n):
    spec = importlib.util.spec_from_file_location("compare_builds", ROOT / "scripts" / "compare_builds.py")
    cb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cb)
    for name, (x, y, xp, _, *qs) in cb.draws(seed, n, cb.row_table()):
        yield name[len("row_"):], x, y, qs, xp


@pytest.mark.parametrize("seed", [21, 22])
def test_seeded_adversarial_rows_match_the_scalar_path(seed):
    for model, x, y, qs, xp in _row_draws(seed, 1500):
        _check(model, x, y, qs, xp)


_SIGNED = (0.0, -0.0)


@pytest.mark.parametrize("model", list(MODELS))
def test_signed_zero_rows_and_branch_points(model):
    for x in _SIGNED + (0.25, -0.5, math.nan):
        for y in _SIGNED + (0.01, math.inf):
            qs = [0.0, -0.0, 2.0, -2.0, 1.5, *branch_points_q(x), math.nan, 1e308]
            for xp in (0.0, 1.0, 1e200, math.inf):
                _check(model, x, y, qs, xp)


@pytest.mark.parametrize("model", ["bgk", "mermin"])
def test_q0_node_names_the_classical_limit(model):
    assert _row(model, 0.3, 0.1, [0.0, 1.0], 1.0)[0] == ("DegenerateQ", "q = 0: use epsilon_classical_limit")
    # a row whose z is not finite still reports q = 0 first
    assert [c for c, _ in _row(model, 0.3, math.nan, [0.0, 1.0], 1.0)] == ["DegenerateQ", "NonFiniteResult"]


def test_lindhard_q0_node_names_the_kernel():
    assert _row("lindhard", 0.3, 0.0, [0.0], 1.0) == [("DegenerateQ", "g_a needs q != 0")]
    assert [c for c, _ in _row("lindhard", math.inf, 0.0, [-0.0, 1.0], 1.0)] == ["DegenerateQ", "NonFiniteResult"]


def test_mermin_error_precedence_per_route():
    # x = 0 is static and squares xp before N0, whose kernel sits on its branch
    # point at q = 2; the other routes evaluate N first, then square xp
    static = _row("mermin", 0.0, 0.1, [2.0, 1.0], 1e200)
    assert [c for c, _ in static] == ["NonFiniteResult", "NonFiniteResult"]
    assert "square of xp" in static[0][1]
    assert _row("mermin", 0.0, 0.1, [2.0], 1.0)[0][0] == "PoleAtBranchPoint"
    # y = 0: N hits its branch point at x + q/2 = 1; y > 0: N0 hits it at q = 2
    assert [c for c, _ in _row("mermin", 0.5, 0.0, [1.0, 2.5], 1e200)] == ["PoleAtBranchPoint", "NonFiniteResult"]
    assert [c for c, _ in _row("mermin", 0.5, 0.1, [2.0, 2.5], 1e200)] == ["PoleAtBranchPoint", "NonFiniteResult"]
    assert [c for c, _ in _row("bgk", 0.5, 0.0, [1.0, 2.5], 1e200)] == ["PoleAtBranchPoint", "NonFiniteResult"]
    assert [c for c, _ in _row("lindhard", 0.5, 0.0, [1.0, 2.5], 1e200)] == ["PoleAtBranchPoint", "NonFiniteResult"]


@pytest.mark.parametrize("model, y, xp, text", [
    ("bgk", -0.1, 1.0, "y must be >= 0, got -0.1"),
    ("mermin", -0.1, -1.0, "y must be >= 0, got -0.1"),
    ("bgk", 0.1, -1.0, "xp must be >= 0, got -1.0"),
    ("mermin", 0.0, -1.0, "xp must be >= 0, got -1.0"),
    ("lindhard", 0.0, -1.0, "xp must be >= 0, got -1.0"),
])
def test_negative_y_or_xp_raises_out_of_the_row(model, y, xp, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        MODELS[model](0.3, y, [0.0, 1.0], xp)
    _check(model, 0.3, y, [0.0, 1.0], xp)


@pytest.mark.parametrize("model, x, y", [
    ("bgk", 0.3, 0.1), ("mermin", 0.3, 0.1), ("mermin", 0.3, 0.0), ("mermin", 0.0, 0.1), ("lindhard", 0.3, 0.0),
])
def test_int_xp_whose_coupling_overflows_raises_as_the_scalar(model, x, y):
    # an int's square does not overflow; 1.5 * xp**2 does, as OverflowError
    xp = 10 ** 200
    with pytest.raises(OverflowError):
        SCALAR[model](x, y, 1.0, xp)
    with pytest.raises(OverflowError):
        MODELS[model](x, y, [1.0], xp)
    _check(model, x, y, [0.0, -0.0], xp)
