"""SI <-> dimensionless conversions and derived Fermi-gas quantities."""

import dataclasses
import math

import numpy as np
import pytest

from qplasma.dielectric import epsilon_collisional_a, epsilon_collisional_b
from qplasma.errors import InconsistentParameters, ZeroWavenumber
from qplasma.units import (
    E_CHARGE,
    EPS0,
    HBAR,
    M_E,
    PhysicalParams,
    fermi_quantities,
    from_convention_a,
    plasma_frequency,
    to_convention_a,
    to_convention_b,
)

# copper-like conduction-electron density
N_CU = 8.49e28


def _params(omega=3.0e15, nu=2.0e13, k=5.0e9, N=N_CU):
    return PhysicalParams.from_density(omega=omega, nu=nu, k=k, N=N)


def test_constants_are_scipy_codata_values():
    constants = pytest.importorskip("scipy.constants")
    assert (HBAR, M_E, E_CHARGE, EPS0) == (
        constants.hbar, constants.m_e, constants.e, constants.epsilon_0)


def test_fermi_quantities_copper_point():
    fq = fermi_quantities(N_CU)
    assert fq.kF == pytest.approx(1.3596993714396431e10, rel=1e-12)
    assert fq.vF == pytest.approx(1.5740918185315363e6, rel=1e-12)
    assert fq.EF / E_CHARGE == pytest.approx(7.0438277975156165, rel=1e-12)


def test_fermi_cube_root_scaling():
    a = fermi_quantities(1e28)
    b = fermi_quantities(8e28)
    assert b.kF == pytest.approx(2.0 * a.kF, rel=1e-14)


def test_fermi_inversion():
    fq = fermi_quantities(N_CU)
    assert (fq.kF ** 3) / (3 * math.pi ** 2) == pytest.approx(N_CU, rel=1e-12)


def test_plasma_frequency_copper():
    assert plasma_frequency(N_CU) == pytest.approx(1.6437863723842734e16, rel=1e-12)


def test_convention_a_definitions():
    p = _params()
    a = to_convention_a(p)
    assert a.x == pytest.approx(p.omega / (p.k * p.vF), rel=1e-15)
    assert a.y == pytest.approx(p.nu / (p.k * p.vF), rel=1e-15)
    assert a.q == pytest.approx(p.k / p.kF, rel=1e-15)
    assert a.xp == pytest.approx(p.omega_p / (p.k * p.vF), rel=1e-15)


def test_zero_frequency_maps_to_origin():
    p = _params(omega=0.0, nu=0.0)
    a = to_convention_a(p)
    assert a.x == 0.0 and a.y == 0.0


def test_q_is_one_at_fermi_wavenumber():
    fq = fermi_quantities(N_CU)
    p = _params(k=fq.kF)
    assert to_convention_a(p).q == pytest.approx(1.0, rel=1e-15)
    assert to_convention_a(p).x == pytest.approx(p.omega / (fq.kF * fq.vF), rel=1e-15)


def test_q_two_at_double_fermi_wavenumber():
    fq = fermi_quantities(N_CU)
    p = _params(k=2 * fq.kF)
    assert to_convention_b(p).q == pytest.approx(2.0, rel=1e-15)


def test_cross_convention_relations():
    p = _params()
    a, b = to_convention_a(p), to_convention_b(p)
    assert a.x * a.q == pytest.approx(b.x, rel=1e-14)
    assert a.y * a.q == pytest.approx(b.y, rel=1e-14)
    assert a.q == b.q
    assert (a.xp * a.q) ** 2 == pytest.approx(b.xp2, rel=1e-14)


def test_round_trip_to_physical():
    p = _params()
    a = to_convention_a(p)
    back = from_convention_a(a, kF=p.kF, vF=p.vF)
    for name in ("omega", "nu", "k", "omega_p"):
        assert getattr(back, name) == pytest.approx(getattr(p, name), rel=1e-14)


def test_epsilon_agrees_through_both_conventions():
    rng = np.random.default_rng(37)
    fq = fermi_quantities(N_CU)
    scale = fq.kF * fq.vF
    n_checked = 0
    while n_checked < 20:
        k = float(rng.uniform(0.1, 4.0)) * fq.kF
        omega = float(rng.uniform(0.0, 1.5)) * k * fq.vF
        nu = float(rng.uniform(1e-3, 0.5)) * k * fq.vF
        x = omega / (k * fq.vF)
        if min(abs(abs(x + s * k / fq.kF / 2) - 1) for s in (1, -1)) < 1e-2:
            continue
        p = _params(omega=omega, nu=nu, k=k)
        ea = epsilon_collisional_a(to_convention_a(p)).epsilon
        eb = epsilon_collisional_b(to_convention_b(p)).epsilon
        assert abs(ea - eb) / abs(ea) < 1e-12
        n_checked += 1


def test_inconsistent_density_rejected():
    fq = fermi_quantities(N_CU)
    with pytest.raises(InconsistentParameters, match="^omega_p=.* inconsistent with density value "):
        PhysicalParams(
            omega=1e15, nu=1e13, k=5e9, vF=fq.vF, kF=fq.kF,
            omega_p=1.5 * plasma_frequency(N_CU), N=N_CU,
        )


def test_inconsistent_kf_vf_rejected():
    fq = fermi_quantities(N_CU)
    with pytest.raises(InconsistentParameters):
        PhysicalParams(
            omega=1e15, nu=1e13, k=5e9, vF=fq.vF, kF=1.01 * fq.kF,
            omega_p=plasma_frequency(N_CU),
        )


def test_zero_wavenumber_rejected():
    with pytest.raises(ZeroWavenumber):
        _params(k=0.0)


@pytest.mark.parametrize("field, text", [("omega", "omega must be >= 0, got -1.0"), ("nu", "nu must be >= 0, got -1.0")])
def test_negative_frequency_rejected(field, text):
    fq = fermi_quantities(N_CU)
    fields = dict(omega=1e15, nu=1e13, k=5e9, vF=fq.vF, kF=fq.kF, omega_p=plasma_frequency(N_CU))
    fields[field] = -1.0
    with pytest.raises(ValueError, match=f"^{text}$"):
        PhysicalParams(**fields)


def test_from_convention_a_rejects_bad_anchors_and_negative_q():
    p = _params()
    a = to_convention_a(p)
    for kF, vF in ((0.0, p.vF), (-p.kF, p.vF), (p.kF, 0.0)):
        with pytest.raises(ValueError, match="^kF and vF must be positive$"):
            from_convention_a(a, kF, vF)
    with pytest.raises(ZeroWavenumber, match="^q must be positive to reconstruct k$"):
        from_convention_a(dataclasses.replace(a, q=-a.q), p.kF, p.vF)
