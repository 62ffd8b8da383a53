"""Kohn singularity locator and the collision-broadening scan."""

import math

import numpy as np
import pytest

from qplasma.errors import NonFiniteResult, WindowContainsPole
from qplasma.kohn import (
    kohn_roots_dimless,
    kohn_wavenumbers_physical,
    singularity_broadening_scan,
)


def test_roots_at_x0_multiset():
    roots = kohn_roots_dimless(0.0)
    values = sorted(r.q.real for r in roots.roots)
    assert all(r.q.imag == 0.0 for r in roots.roots)
    assert values == [-2.0, -2.0, 0.0, 2.0]
    degenerate = {r.q.real for r in roots.roots if r.degenerate}
    assert 0.0 in degenerate


def test_roots_small_x_splitting():
    roots = kohn_roots_dimless(0.005).roots
    q1, q2 = roots[0].q.real, roots[1].q.real
    assert q1 == pytest.approx(1.0 + math.sqrt(1.01), abs=1e-15)
    assert q2 == pytest.approx(1.0 + math.sqrt(0.99), abs=1e-15)
    assert q1 == pytest.approx(2.0049876, abs=1e-7)
    assert q2 == pytest.approx(1.9949874, abs=1e-7)
    assert q1 - q2 == pytest.approx(2 * 0.005, rel=2e-4)


def test_complex_roots_flagged_nonphysical():
    roots = kohn_roots_dimless(0.6).roots
    complex_roots = [r for r in roots if r.q.imag != 0.0]
    assert complex_roots
    assert all(not r.physical for r in complex_roots)
    # 1 - 2x < 0 only affects the sm branches
    assert {r.branch for r in complex_roots} == {(-1, +1), (+1, +1)}


def test_residuals_across_x_range():
    for x in np.linspace(-0.4, 0.4, 81):
        for r in kohn_roots_dimless(float(x)).roots:
            assert r.residual < 1e-10


def test_both_algebraic_roots_reported():
    roots = kohn_roots_dimless(0.02).roots
    for r in roots:
        s1, s2 = r.branch
        for q in (r.q, r.q_alt):
            assert abs(q * q + 2 * s1 * q + 2 * s2 * 0.02) < 1e-12
        assert r.principal


def test_splitting_law():
    for x in (0.005, 0.01, 0.03, 0.05):
        roots = kohn_roots_dimless(x).roots
        ratio = (roots[0].q.real - roots[1].q.real) / (2 * x)
        assert 0.99 <= ratio <= 1.01


def test_physical_wavenumbers_at_omega0():
    kF = 1.2e10
    k1, k2, k3, k4 = kohn_wavenumbers_physical(0.0, kF, 1.5e6)
    assert k1 == pytest.approx(2 * kF, rel=1e-15)
    assert k3 == pytest.approx(-2 * kF, rel=1e-15)
    assert k4 == pytest.approx(-2 * kF, rel=1e-15)


def test_physical_dimensionless_consistency():
    kF, vF = 1.2e10, 1.5e6
    x = 0.01
    omega = x * kF * vF
    ks = kohn_wavenumbers_physical(omega, kF, vF)
    qs = [r.q for r in kohn_roots_dimless(x).roots]
    for k, q in zip(ks, qs):
        assert abs(k / kF - q) <= 1e-12 * abs(q)


def test_physical_fermi_energy_form():
    # k1 = (pF/hbar)(1 + sqrt(1 + hbar*omega/EF)) rewrites the same root
    kF, vF = 9.0e9, 1.1e6
    omega = 0.004 * kF * vF
    hbar_omega_over_EF = 2.0 * omega / (kF * vF)  # EF = m vF^2/2, kF = m vF/hbar
    k1 = kF * (1.0 + math.sqrt(1.0 + hbar_omega_over_EF))
    assert k1 == pytest.approx(kohn_wavenumbers_physical(omega, kF, vF)[0].real, rel=1e-14)


def test_non_finite_input_raises():
    nan, inf = float("nan"), float("inf")
    for x in (nan, inf, -inf):
        with pytest.raises(NonFiniteResult):
            kohn_roots_dimless(x)
    with pytest.raises(NonFiniteResult):
        kohn_wavenumbers_physical(nan, 1e10, 1e6)
    for kF, vF in ((inf, 1e6), (nan, 1e6), (1e10, inf), (1e10, nan)):
        with pytest.raises(ValueError):
            kohn_wavenumbers_physical(1e14, kF, vF)


def test_overflowing_roots_raise():
    # 1 +- 2x overflows from |x| ~ 8.99e307 on; just below, all roots are finite
    for x in (1e308, -1e308, 8.99e307, 1.7976931348623157e308):
        with pytest.raises(NonFiniteResult):
            kohn_roots_dimless(x)
    for r in kohn_roots_dimless(8.98e307).roots:
        assert all(math.isfinite(v) for v in (r.q.real, r.q.imag, r.q_alt.real, r.q_alt.imag, r.residual))
    # kF * q overflows although x is ordinary
    with pytest.raises(NonFiniteResult):
        kohn_wavenumbers_physical(1.0, 1e308, 1.0)


# ------------------------------------------------------------------- scan

def test_broadening_scan_monotone_in_y():
    rows = singularity_broadening_scan(0.0, 1.0, [0.005, 0.01], (1.8, 2.2))
    assert rows[0].max_abs_deps_dq > rows[1].max_abs_deps_dq


def test_broadening_scan_large_y_flat():
    rows = singularity_broadening_scan(0.0, 1.0, [0.01, 10.0], (1.8, 2.2))
    assert rows[1].max_abs_deps_dq < rows[0].max_abs_deps_dq
    assert rows[1].max_abs_deps_dq < 0.1


def test_broadening_scan_skips_singular_node():
    # 2001 nodes on [1.8, 2.2] put a node exactly on the q=2 branch point
    rows = singularity_broadening_scan(0.0, 1.0, [0.0], (1.8, 2.2))
    assert rows[0].skipped_q
    assert any(abs(q - 2.0) < 1e-9 for q in rows[0].skipped_q)
    assert math.isfinite(rows[0].max_abs_deps_dq)


def test_broadening_scan_raise_mode():
    with pytest.raises(WindowContainsPole):
        singularity_broadening_scan(0.0, 1.0, [0.0], (1.8, 2.2), on_pole="raise")


def test_broadening_scan_y0_dominates():
    rows = singularity_broadening_scan(0.0, 1.0, [0.0, 0.005, 0.01], (1.8, 2.2))
    slopes = [r.max_abs_deps_dq for r in rows]
    assert slopes[0] > slopes[1] > slopes[2]
