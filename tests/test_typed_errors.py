"""Only typed errors escape: every public kernel and model, on adversarial
arguments, returns finite values or raises a QplasmaError (or a documented
ValueError), never a bare OverflowError or ZeroDivisionError."""

import importlib.util
import math
from pathlib import Path

import pytest

from qplasma.cli import main
from qplasma.dielectric import (
    DimensionlessPointA,
    DimensionlessPointB,
    epsilon_classical_limit,
    epsilon_collisional_a,
    epsilon_collisional_b,
    epsilon_lindhard,
    epsilon_mermin,
    epsilon_static_collisional,
    epsilon_static_mermin,
)
from qplasma.errors import NonFiniteResult, QplasmaError
from qplasma.kohn import kohn_roots_dimless, kohn_wavenumbers_physical
from qplasma.quadrature import epsilon_from_quadrature
from qplasma.units import HBAR, M_E, PhysicalParams, to_convention_a, to_convention_b

ROOT = Path(__file__).resolve().parent.parent


def _compare_builds():
    spec = importlib.util.spec_from_file_location("compare_builds", ROOT / "scripts" / "compare_builds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [11, 12])
def test_adversarial_draw_raises_only_typed_errors(seed):
    cb = _compare_builds()
    table = cb.call_table()
    bad = []
    for name, args in cb.draws(seed, 30_000, table):
        fn, _ = table[name]
        try:
            value = fn(*args)
        except QplasmaError:
            continue
        except ValueError as exc:
            if "math domain error" not in str(exc):
                continue
            bad.append((name, args, repr(exc)))
            continue
        except Exception as exc:  # noqa: BLE001 - the defect this test looks for
            bad.append((name, args, repr(exc)))
            continue
        numbers = [v for v in cb.flatten(value) if isinstance(v, float)]
        if not all(math.isfinite(v) for v in numbers):
            bad.append((name, args, repr(value)))
    assert bad == [], bad[:10]


_HUGE_XP = 1e200


@pytest.mark.parametrize("call", [
    lambda: epsilon_collisional_a(DimensionlessPointA(0.3, 0.1, 1.0, _HUGE_XP)),
    lambda: epsilon_mermin(DimensionlessPointA(0.3, 0.1, 1.0, _HUGE_XP)),
    lambda: epsilon_mermin(DimensionlessPointA(0.3, 0.0, 1.0, _HUGE_XP)),
    lambda: epsilon_mermin(DimensionlessPointA(0.0, 0.1, 1.0, _HUGE_XP)),
    lambda: epsilon_lindhard(0.3, 1.0, _HUGE_XP),
    lambda: epsilon_static_mermin(0.6, _HUGE_XP),
    lambda: epsilon_static_collisional(0.1, 0.6, _HUGE_XP),
    lambda: epsilon_classical_limit(0.3 + 0.1j, _HUGE_XP),
    lambda: epsilon_collisional_b(DimensionlessPointB(0.3, 0.1, 1.5e154, 1.0)),
    lambda: epsilon_collisional_b(DimensionlessPointB(0.0, 0.0, 1e-170, 1.0)),
    lambda: epsilon_from_quadrature(0.3, 0.1, 1.0, _HUGE_XP),
    lambda: epsilon_from_quadrature(0.3, 0.1, 0.0, 1.0),
    lambda: epsilon_from_quadrature(0.3, 1e300, 1.0, 1.0),
    lambda: kohn_wavenumbers_physical(1.0, 1e-200, 1e-200),
    lambda: to_convention_a(PhysicalParams(1.0, 0.0, 1e-200, 1e-200, 1e-200 / (HBAR / M_E), 1.0)),
    lambda: to_convention_b(PhysicalParams(1.0, 0.0, 1.0, 1e-100, 1e-100 / (HBAR / M_E), 1.0)),
    lambda: kohn_roots_dimless(1e308),
    lambda: kohn_wavenumbers_physical(1.0, 1e308, 1.0),
    lambda: to_convention_a(PhysicalParams(1e300, 0.0, 1e-300, 1.0, 1.0 / (HBAR / M_E), 1.0)),
    lambda: to_convention_b(PhysicalParams(1e300, 0.0, 1.0, 1e-300, 1e-300 / (HBAR / M_E), 1.0)),
    lambda: to_convention_a(PhysicalParams(math.nan, 0.0, 1.0, 1.0, 1.0 / (HBAR / M_E), 1.0)),
    lambda: epsilon_from_quadrature(0.3, 0.1, 1.0, math.nan),
    lambda: epsilon_from_quadrature(math.inf, 0.1, 1.0, 1.0),
    lambda: epsilon_from_quadrature(0.3, 0.1, 1.0, 1e154),
], ids=[
    "bgk", "mermin", "mermin-y0", "mermin-x0", "lindhard", "static-mermin",
    "static-collisional", "classical", "bgk-b-q2-overflow", "bgk-b-q2-underflow",
    "quadrature-xp", "quadrature-q0", "quadrature-g0-is-1", "kohn-physical",
    "units-a-scale", "units-b-xp2", "kohn-roots-overflow", "kohn-physical-kf-q-overflow",
    "units-a-x-overflow", "units-b-x-overflow", "units-a-nan-omega", "quadrature-nan-xp",
    "quadrature-inf-x", "quadrature-result-overflow",
])
def test_squares_and_scales_that_leave_double_range_raise_non_finite(call):
    with pytest.raises(NonFiniteResult):
        call()


def test_cli_compare_huge_coupling_is_an_evaluation_error(capsys):
    assert main(["compare", "--x", "0.3", "--y", "0.1", "--q", "1", "--xp", "1e200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("evaluation error: NonFiniteResult:")


def test_cli_kohn_underflowing_scale_is_an_evaluation_error(capsys):
    assert main(["kohn", "--omega", "1", "--kf", "1e-200", "--vf", "1e-200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("evaluation error: NonFiniteResult:")


def test_cli_sweep_huge_coupling_skips_every_point(tmp_path, capsys):
    rc = main(["sweep", "--model", "bgk", "--x", "0.3", "--y", "0.1", "--q", "0.5:1.5:3",
               "--xp", "1e200", "--output", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("skipped 3 of 3 points (100.00%):")
    assert err.count("NonFiniteResult") == 3
