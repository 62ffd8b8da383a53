"""Only typed errors escape: every public kernel and model, on adversarial
arguments, returns finite values or raises a QplasmaError (or a documented
ValueError), never a bare OverflowError or ZeroDivisionError."""

import importlib.util
import inspect
import math
import random
from pathlib import Path

import pytest

from qplasma.cli import main
from qplasma.dielectric import (
    MODELS,
    DimensionlessPointA,
    DimensionlessPointB,
    branch_points_q,
    epsilon_classical_limit,
    epsilon_collisional_a,
    epsilon_collisional_b,
    epsilon_lindhard,
    epsilon_mermin,
    epsilon_static_collisional,
    epsilon_static_mermin,
)
from qplasma.errors import ConfigError, NonFiniteResult, QplasmaError
from qplasma.kernels import clog_ratio, g0_a, g0_b, g_a
from qplasma.kohn import kohn_roots_dimless, kohn_wavenumbers_physical, singularity_broadening_scan
from qplasma.quadrature import epsilon_from_quadrature, g0_quadrature
from qplasma.sweep import SweepConfig, run_sweep
from qplasma.units import (
    HBAR,
    M_E,
    PhysicalParams,
    fermi_quantities,
    from_convention_a,
    plasma_frequency,
    to_convention_a,
    to_convention_b,
)

ROOT = Path(__file__).resolve().parent.parent


def _compare_builds():
    spec = importlib.util.spec_from_file_location("compare_builds", ROOT / "scripts" / "compare_builds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_HUGE_INT = 10 ** 400  # an int beyond double range: float() of it raises OverflowError
# argument slots the call table itself converts before the call (it joins
# x and y into complex(x, y), and divides vF by hbar/m for kF)
_TABLE_CONVERTS = {
    **dict.fromkeys(("clog_ratio", "g0_a", "g_a", "g0_b", "g_b", "epsilon_classical_limit"), (0, 1)),
    "to_convention_a": (3,), "to_convention_b": (3,),
}


def _with_huge_ints(seed: int, draws):
    """The draws, each followed, one time in five, by the same call with one
    float argument that reaches the library replaced by +-10**400."""
    rng = random.Random(seed)
    for name, args in draws:
        yield name, args
        slots = [i for i, v in enumerate(args) if isinstance(v, float) and i not in _TABLE_CONVERTS.get(name, ())]
        if slots and rng.random() < 0.2:
            i = rng.choice(slots)
            yield name, (*args[:i], rng.choice((1, -1)) * _HUGE_INT, *args[i + 1:])


@pytest.mark.parametrize("seed", [11, 12])
def test_adversarial_draw_raises_only_typed_errors(seed):
    cb = _compare_builds()
    table = cb.call_table()
    bad = []
    for name, args in _with_huge_ints(seed, cb.draws(seed, 30_000, table)):
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


# public functions that call_table() leaves out, with the reason
_NOT_DRAWN: dict[str, str] = {}


def test_adversarial_draw_reaches_every_public_function():
    import qplasma

    cb = _compare_builds()
    functions = {name for name in qplasma.__all__ if inspect.isfunction(getattr(qplasma, name))}
    drawn = set(cb.call_table()) | {"run_sweep"}  # run_sweep: every sweep_table() entry
    assert functions - drawn == set(_NOT_DRAWN)


_HUGE_XP = 1e200
_INT_XP = 10 ** 200


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
    lambda: to_convention_a(PhysicalParams(1e300, 0.0, 1e160, 1e160 * (HBAR / M_E), 1e160, 1e300)),
    lambda: to_convention_b(PhysicalParams(1e300, 0.0, 1e160, 1e160 * (HBAR / M_E), 1e160, 1e300)),
    # an int's exact square does not overflow; its conversion to a float does
    lambda: epsilon_collisional_a(DimensionlessPointA(0.3, 0.1, 1.0, _INT_XP)),
    lambda: epsilon_mermin(DimensionlessPointA(0.3, 0.1, 1.0, _INT_XP)),
    lambda: epsilon_mermin(DimensionlessPointA(0.0, 0.1, 1.0, _INT_XP)),
    lambda: epsilon_lindhard(0.3, 1.0, _INT_XP),
    lambda: epsilon_classical_limit(0.3 + 0.1j, _INT_XP),
    lambda: epsilon_from_quadrature(0.3, 0.1, 1.0, _INT_XP),
    lambda: fermi_quantities(math.nan),
    lambda: fermi_quantities(math.inf),
    lambda: fermi_quantities(-math.inf),
    lambda: fermi_quantities(1e308),
    lambda: fermi_quantities(5e-324),
    lambda: plasma_frequency(5e-324),
    lambda: plasma_frequency(1e-300),
    lambda: PhysicalParams(1.0, 0.0, 1.0, 1.0, 1.0 / (HBAR / M_E), 1.0, N=math.nan),
    lambda: PhysicalParams.from_density(1.0, 0.0, math.inf, 1e28),
    lambda: PhysicalParams(1.0, 0.0, 1.0, 1e305, 1.0, 1.0),  # vF/(hbar/m) overflows, so no kF matches it
    # kF*vF overflows: x = omega/(kF vF) came out 0 and the roots 2kF, 2kF, -2kF, -2kF, though x is 0.5
    lambda: kohn_wavenumbers_physical(1e308, 1e154, 2e154),
    # k*vF = 1e-320 is subnormal: x came out 1.0000111e20, 1.1e-5 off
    lambda: to_convention_a(PhysicalParams(1e-300, 0.0, 1e-160, 1e-160, 1e-160 / (HBAR / M_E), 1e-300)),
], ids=[
    "bgk", "mermin", "mermin-y0", "mermin-x0", "lindhard", "static-mermin",
    "static-collisional", "classical", "bgk-b-q2-overflow", "bgk-b-q2-underflow",
    "quadrature-xp", "quadrature-q0", "quadrature-n-underflows", "kohn-physical",
    "units-a-scale", "units-b-xp2", "kohn-roots-overflow", "kohn-physical-kf-q-overflow",
    "units-a-x-overflow", "units-b-x-overflow", "units-a-nan-omega", "quadrature-nan-xp",
    "quadrature-inf-x", "quadrature-result-overflow", "units-a-scale-inf", "units-b-scale-inf",
    "bgk-int-xp", "mermin-int-xp", "mermin-x0-int-xp", "lindhard-int-xp", "classical-int-xp", "quadrature-int-xp",
    "fermi-nan", "fermi-inf", "fermi-minus-inf", "fermi-kf-overflow", "fermi-3pi2n-subnormal", "plasma-e2n-underflow",
    "plasma-e2n-subnormal", "units-nan-density", "units-from-density-inf-k",
    "units-kf-expected-overflow", "kohn-physical-scale-inf", "units-a-scale-subnormal",
])
def test_squares_and_scales_that_leave_double_range_raise_non_finite(call):
    with pytest.raises(NonFiniteResult):
        call()


@pytest.mark.parametrize("call", [
    lambda: epsilon_collisional_a(DimensionlessPointA(_HUGE_INT, 0.1, 1, 1)),
    lambda: epsilon_collisional_a(DimensionlessPointA(0.3, 0.1, _HUGE_INT, 1)),
    lambda: epsilon_collisional_b(DimensionlessPointB(0.3, 0.1, 1, _HUGE_INT)),
    lambda: epsilon_mermin(DimensionlessPointA(0.3, _HUGE_INT, 1, 1)),
    lambda: epsilon_lindhard(_HUGE_INT, 1, 1),
    lambda: epsilon_static_collisional(_HUGE_INT, 0.6, 1),
    lambda: epsilon_static_mermin(_HUGE_INT, 1),
    lambda: epsilon_classical_limit(_HUGE_INT, 1),
    lambda: clog_ratio(_HUGE_INT),
    lambda: g0_a(-_HUGE_INT),
    lambda: g_a(0.3, _HUGE_INT, 1),
    lambda: g0_b(0.3, _HUGE_INT),
    lambda: kohn_roots_dimless(_HUGE_INT),
    lambda: kohn_wavenumbers_physical(_HUGE_INT, 1e10, 1e6),
    lambda: kohn_wavenumbers_physical(1.0, _HUGE_INT, 1e6),
    lambda: singularity_broadening_scan(_HUGE_INT, 1, [0.1], (1, 3), 5),
    lambda: epsilon_from_quadrature(_HUGE_INT, 0.1, 1, 1),
    lambda: epsilon_from_quadrature(0.3, 0.1, 1, _HUGE_INT),
    lambda: g0_quadrature(0.3, _HUGE_INT),
    lambda: PhysicalParams(1, 0, 1, _HUGE_INT, _HUGE_INT, 1),
    lambda: fermi_quantities(_HUGE_INT),
    lambda: branch_points_q(_HUGE_INT),
    lambda: from_convention_a(DimensionlessPointA(0.3, 0.1, 1.0, 1.0), _HUGE_INT, 1e6),
    lambda: from_convention_a(DimensionlessPointA(0.3, 0.1, 1.0, 1.0), 1e10, _HUGE_INT),
], ids=[
    "bgk-x", "bgk-q", "bgk-b-xp2", "mermin-y", "lindhard-x", "static-collisional-y", "static-mermin-w",
    "classical-z", "clog-ratio", "g0-a", "g-a-q", "g0-b-q", "kohn-roots", "kohn-physical-omega",
    "kohn-physical-kf", "scan-x", "quadrature-x", "quadrature-xp", "g0-quadrature-y", "units-vf",
    "fermi", "branch-points-x", "from-a-kf", "from-a-vf",
])
def test_int_beyond_double_range_raises_non_finite(call):
    with pytest.raises(NonFiniteResult, match="beyond double range"):
        call()


@pytest.mark.parametrize("kF, vF", [(-_HUGE_INT, 1e6), (1e10, -_HUGE_INT)])
def test_from_convention_a_checks_the_sign_of_a_huge_anchor_first(kF, vF):
    with pytest.raises(ValueError, match="^kF and vF must be positive$"):
        from_convention_a(DimensionlessPointA(0.3, 0.1, 1.0, 1.0), kF, vF)


@pytest.mark.parametrize("model", list(MODELS))
def test_model_row_of_an_int_beyond_double_range_holds_non_finite_nodes(model):
    assert all(isinstance(v, NonFiniteResult) for v in MODELS[model](0.3, (0.0,), [1.0, 1.5], _HUGE_INT)[0])


def test_count_beyond_double_range_raises_before_the_grid_is_built():
    with pytest.raises(NonFiniteResult, match="beyond double range"):
        singularity_broadening_scan(0.3, 1, [0.1], (1, 3), _HUGE_INT)
    with pytest.raises(ConfigError, match="beyond double range"):
        run_sweep(SweepConfig("bgk", 0.3, (0.1,), 1, 3, _HUGE_INT, 1.0, "o"), write=False)


@pytest.mark.parametrize("model", list(MODELS))
def test_model_row_node_at_an_int_q_beyond_double_range_is_non_finite(model):
    ok, huge = MODELS[model](0.3, (0.0 if model == "lindhard" else 0.1,), [1.0, _HUGE_INT], 1.0)[0]
    assert isinstance(ok, complex)
    assert isinstance(huge, NonFiniteResult) and "beyond double range" in str(huge)


def test_int_fields_are_stored_as_floats():
    for fields in (DimensionlessPointA(1, 0, 2, 3), DimensionlessPointB(1, 0, 2, 3),
                   PhysicalParams(1, 0, 1, 10 ** 6, 10 ** 6 / (HBAR / M_E), 1)):
        assert {type(v) for v in vars(fields).values()} <= {float, type(None)}


def test_sweep_config_int_beyond_double_range_is_a_config_error():
    with pytest.raises(ConfigError, match="beyond double range"):
        SweepConfig("bgk", _HUGE_INT, (0.1,), 0.5, 1.5, 3, 1.0, "o")


def test_cli_compare_huge_coupling_is_an_evaluation_error(capsys):
    assert main(["compare", "--x", "0.3", "--y", "0.1", "--q", "1", "--xp", "1e200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("evaluation error: NonFiniteResult:")


def test_cli_kohn_underflowing_scale_is_an_evaluation_error(capsys):
    # and an overflowing one, which printed x = 0 and its roots
    for omega, kf, vf in (("1", "1e-200", "1e-200"), ("1e308", "1e154", "2e154")):
        assert main(["kohn", "--omega", omega, "--kf", kf, "--vf", vf]) == 1
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
