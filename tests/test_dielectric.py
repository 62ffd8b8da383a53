"""Model tests: BGK/Lindhard/Mermin permittivities, static and classical
limits, conductivity duality, and the symmetry invariants."""

import math
import random
import sys

import numpy as np
import pytest
from conftest import branch_distance, random_points
from reference import abs_err, ref_bgk_b, ref_mermin, ref_numerator, ref_sigma, rel_err

from qplasma.dielectric import (
    MODELS,
    DimensionlessPointA,
    DimensionlessPointB,
    Model,
    epsilon_classical_limit,
    epsilon_collisional_a,
    epsilon_collisional_b,
    epsilon_lindhard,
    epsilon_mermin,
    epsilon_static_collisional,
    epsilon_static_mermin,
    sigma_longitudinal,
)
from qplasma.errors import (
    DegenerateQ,
    DenominatorVanishes,
    DivisionByZeroFrequency,
    PoleAtBranchPoint,
)
from qplasma.kernels import _numerator, _one, g_a

A = DimensionlessPointA
B = DimensionlessPointB


# ------------------------------------------------------------ BGK, conv. A

def test_bgk_y0_equals_lindhard_exactly():
    for (x, q, xp) in [(0.4, 1.1, 1.3), (-1.7, 3.3, 0.5), (0.0, 0.9, 2.0)]:
        assert epsilon_collisional_a(A(x, 0.0, q, xp)).epsilon == epsilon_lindhard(x, q, xp).epsilon


def test_bgk_static_curve_is_real_with_smoothed_kink():
    # x=0, y=0.01, xp=10: single real curve, smoother than the y=0 one
    qs = np.linspace(1.8, 2.2, 201)
    vals = [epsilon_collisional_a(A(0.0, 0.01, float(q), 10.0)).epsilon for q in qs]
    assert max(abs(v.imag) for v in vals) < 1e-12
    slopes = np.abs(np.diff([v.real for v in vals])) / (qs[1] - qs[0])
    vals0 = [epsilon_collisional_a(A(0.0, 0.0, float(q), 10.0)).epsilon
             for q in qs if abs(q - 2.0) > 1e-9]
    slopes0 = np.abs(np.diff([v.real for v in vals0])) / (qs[1] - qs[0])
    assert slopes.max() < slopes0.max()


def test_bgk_matches_quadrature_point():
    # the full oracle comparison lives in test_quadrature / acceptance
    from qplasma.quadrature import epsilon_from_quadrature

    closed = epsilon_collisional_a(A(0.3, 0.1, 1.0, 1.0)).epsilon
    quad = epsilon_from_quadrature(0.3, 0.1, 1.0, 1.0)
    assert abs(closed - quad) / abs(quad) < 1e-9


def test_bgk_snapshot():
    v = epsilon_collisional_a(A(0.3, 0.1, 1.0, 1.0)).epsilon
    assert v == pytest.approx(3.2533111735155766 + 1.4491202676058803j, rel=1e-13)


def test_bgk_denominator_guard(monkeypatch):
    import qplasma.kernels as k

    monkeypatch.setattr(k, "g0_a", lambda z: 1.0 + 0j)  # where the BGK denominator looks it up
    with pytest.raises(DenominatorVanishes):
        epsilon_collisional_a(A(0.3, 0.1, 1.0, 1.0))


def test_point_validation():
    with pytest.raises(DegenerateQ):
        A(0.1, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        A(0.1, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        A(0.1, 0.1, 1.0, -1.0)


# ------------------------------------------------------------ BGK, conv. B

def test_conventions_agree_through_physical_point():
    rng = np.random.default_rng(7)
    for _ in range(20):
        xA = float(rng.uniform(-1.5, 1.5))
        yA = float(rng.uniform(1e-3, 2.0))
        q = float(rng.uniform(0.1, 4.0))
        xpA = float(rng.uniform(0.1, 3.0))
        if branch_distance(xA, q) < 1e-3:
            continue
        ea = epsilon_collisional_a(A(xA, yA, q, xpA)).epsilon
        eb = epsilon_collisional_b(B(xA * q, yA * q, q, (xpA * q) ** 2)).epsilon
        assert abs(ea - eb) / abs(ea) < 1e-12


def test_bgk_b_y0_is_lindhard_form():
    x, q, xp2 = 0.5, 1.4, 2.0
    from qplasma.kernels import g_b

    z = complex(x, 0.0)
    expected = 1.0 + 1.5 * xp2 / q ** 2 * (1.0 - g_b(z, q, +1) + g_b(z, q, -1))
    assert epsilon_collisional_b(B(x, 0.0, q, xp2)).epsilon == pytest.approx(expected, rel=1e-15)


def test_bgk_b_small_y_family_is_real_at_x0():
    # the weak-collision family used for the strong-coupling kink figures
    for y in (0.002, 0.004):
        v = epsilon_collisional_b(B(0.0, y, 1.9, 100.0)).epsilon
        assert abs(v.imag) < 1e-12
        assert v.real > 1.0


# -------------------------------------------------------------- Lindhard

def test_lindhard_large_q_tends_to_one():
    assert abs(epsilon_lindhard(0.0, 50.0, 1.0).epsilon - 1.0) < 1e-2


def test_lindhard_branch_point_raises():
    with pytest.raises(PoleAtBranchPoint):
        epsilon_lindhard(0.0, 2.0, 1.0)


def test_lindhard_is_small_y_limit_of_bgk():
    xs = np.linspace(0.1, 1.6, 20)
    qs = np.linspace(0.3, 4.0, 20)
    worst = 0.0
    for x in xs:
        for q in qs:
            if branch_distance(float(x), float(q)) < 0.1:
                continue
            lind = epsilon_lindhard(float(x), float(q), 1.0).epsilon
            bgk = epsilon_collisional_a(A(float(x), 1e-8, float(q), 1.0)).epsilon
            worst = max(worst, abs(bgk - lind))
    assert worst < 1e-6


# ---------------------------------------------------------------- Mermin

def test_mermin_reduces_to_lindhard_at_small_y():
    lind = epsilon_lindhard(0.5, 1.2, 1.0).epsilon
    merm = epsilon_mermin(A(0.5, 1e-8, 1.2, 1.0)).epsilon
    assert abs(merm - lind) < 1e-6


def test_mermin_static_value_is_y_independent():
    ref = epsilon_static_mermin(0.6, 1.0).epsilon
    for y in (0.01, 0.1, 1.0):
        assert epsilon_mermin(A(0.0, y, 1.2, 1.0)).epsilon == ref


def test_mermin_differs_from_bgk_at_finite_y():
    bgk = epsilon_collisional_a(A(0.3, 0.1, 1.0, 1.0)).epsilon
    merm = epsilon_mermin(A(0.3, 0.1, 1.0, 1.0)).epsilon
    assert abs(bgk - merm) > 0.01
    # regression snapshot of the model split at this point
    assert merm == pytest.approx(3.2591342210322107 + 1.4956503402937615j, rel=1e-13)
    assert abs(bgk - merm) == pytest.approx(0.04689302236709092, rel=1e-10)


def test_mermin_y0_equals_lindhard_exactly():
    assert epsilon_mermin(A(0.7, 0.0, 1.4, 1.1)).epsilon == epsilon_lindhard(0.7, 1.4, 1.1).epsilon


# ---------------------------------------------------------------- statics

def test_static_mermin_frozen_value():
    # 1 + 1.5 (1 - 0.75 ln 3) at w=2, xp=1
    v = epsilon_static_mermin(2.0, 1.0).epsilon
    assert v.imag == 0.0
    assert v.real == pytest.approx(1.0 + 1.5 * (1.0 - 0.75 * math.log(3.0)), abs=1e-14)
    assert v.real == pytest.approx(1.2640611752483766, abs=1e-12)


def test_static_mermin_large_w():
    assert abs(epsilon_static_mermin(100.0, 1.0).epsilon - 1.0) < 1e-2


def test_static_mermin_real_below_w1():
    # the -i pi parts of the two static kernels cancel in the combination
    for w in (0.25, 0.5, 0.9):
        v = epsilon_static_mermin(w, 1.0).epsilon
        assert v.imag == 0.0
        assert v.real > 1.0


def test_static_mermin_pole_at_w1():
    with pytest.raises(PoleAtBranchPoint):
        epsilon_static_mermin(1.0, 1.0)


def test_static_collisional_y0_equals_static_mermin_exactly():
    for w in (0.3, 0.7, 2.0, 5.0):
        assert (
            epsilon_static_collisional(0.0, w, 1.0).epsilon
            == epsilon_static_mermin(w, 1.0).epsilon
        )


def test_static_collisional_is_real():
    v = epsilon_static_collisional(0.5, 0.7, 1.0).epsilon
    assert abs(v.imag) < 1e-12
    assert v.real == pytest.approx(3.321144673143193, rel=1e-13)


def test_static_collisional_equals_bgk_at_x0():
    for y in (0.01, 0.5):
        for w in (0.45, 1.6):
            a = epsilon_static_collisional(y, w, 1.0).epsilon
            b = epsilon_collisional_a(A(0.0, y, 2.0 * w, 1.0)).epsilon
            assert a == b


# ---------------------------------------------------------- classical limit

def test_classical_limit_of_small_q():
    z = 0.5 + 0.2j
    cl = epsilon_classical_limit(z, 1.0).epsilon
    errs = []
    for q in (1e-2, 1e-3, 1e-4):
        errs.append(abs(epsilon_collisional_a(A(0.5, 0.2, q, 1.0)).epsilon - cl))
    assert errs[2] < 1e-6
    assert errs[0] > errs[1] > errs[2]
    # error is O(q^2): Richardson in q^2 with grid ratio 10 should land much
    # closer to the closed-form limit than the raw q=1e-2 value does
    v2 = epsilon_collisional_a(A(0.5, 0.2, 1e-2, 1.0)).epsilon
    v3 = epsilon_collisional_a(A(0.5, 0.2, 1e-3, 1.0)).epsilon
    richardson = (100.0 * v3 - v2) / 99.0
    assert abs(richardson - cl) < 0.02 * abs(v2 - cl)


def test_classical_limit_real_on_imaginary_axis():
    v = epsilon_classical_limit(0.7j, 1.0).epsilon
    assert abs(v.imag) < 1e-15


def test_classical_limit_coupling_off():
    assert epsilon_classical_limit(0.5 + 0.2j, 0.0).epsilon == 1.0 + 0j


# ------------------------------------------------------------- conductivity

def test_sigma_duality_identity():
    p = A(0.4, 0.1, 0.9, 1.0)
    sig = sigma_longitudinal(p)
    lhs = epsilon_collisional_a(p).epsilon - 1.0
    rhs = sig * 1j * p.xp ** 2 / (p.x * p.y)
    assert abs(lhs - rhs) / abs(lhs) < 1e-14


def test_sigma_vanishes_linearly_as_y_to_0():
    vals = [abs(sigma_longitudinal(A(0.4, y, 0.9, 1.0))) for y in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5
    # epsilon stays finite (Lindhard) meanwhile
    assert abs(epsilon_collisional_a(A(0.4, 1e-6, 0.9, 1.0)).epsilon) < 100


def test_sigma_independent_of_xp():
    s1 = sigma_longitudinal(A(0.4, 0.1, 0.9, 1.0))
    s2 = sigma_longitudinal(A(0.4, 0.1, 0.9, 7.0))
    assert s1 == s2


def test_sigma_zero_frequency_raises():
    with pytest.raises(DivisionByZeroFrequency):
        sigma_longitudinal(A(0.0, 0.1, 0.9, 1.0))


@pytest.mark.parametrize("y", [0.0, 0.2])
def test_bgk_b_sigma_matches_convention_a(y):
    # sigma of a convention-B point equals sigma_longitudinal at the mapped
    # A point (x/q, y/q) for q > 0; for q < 0 it is odd in q at y = 0 (the
    # collisionless normalisation carries x/q) and even in q for y > 0
    for x in (0.52, -0.3):
        for q in (1.3, -1.3):
            got = epsilon_collisional_b(B(x, y, q, 2.0)).sigma
            if q > 0:
                want = sigma_longitudinal(A(x / q, y / q, q, 1.0))
                assert abs(got - want) <= 1e-14 * abs(want)
            else:
                mirror = epsilon_collisional_b(B(x, y, -q, 2.0)).sigma
                want = -mirror if y == 0.0 else mirror
                assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_result_sigma_field_consistent_with_op():
    p = A(0.4, 0.1, 0.9, 1.0)
    assert epsilon_collisional_a(p).sigma == sigma_longitudinal(p)
    assert epsilon_collisional_a(p).model is Model.CollisionalBGK


# ----------------------------------------------------------------- symmetry

@pytest.mark.parametrize("model", ["bgk", "mermin", "lindhard", "bgk_b"])
def test_conjugation_symmetry(model):
    # convention-B points come from the physical map x_B = x q, y_B = y q
    for (x, y, q) in random_points(40, seed=11):
        if model == "lindhard":
            plus = epsilon_lindhard(x, q, 1.0).epsilon
            minus = epsilon_lindhard(-x, q, 1.0).epsilon
        elif model == "bgk":
            plus = epsilon_collisional_a(A(x, y, q, 1.0)).epsilon
            minus = epsilon_collisional_a(A(-x, y, q, 1.0)).epsilon
        elif model == "mermin":
            plus = epsilon_mermin(A(x, y, q, 1.0)).epsilon
            minus = epsilon_mermin(A(-x, y, q, 1.0)).epsilon
        else:
            plus = epsilon_collisional_b(B(x * q, y * q, q, 1.0)).epsilon
            minus = epsilon_collisional_b(B(-x * q, y * q, q, 1.0)).epsilon
        assert abs(minus - plus.conjugate()) <= 1e-12 * abs(plus)


@pytest.mark.parametrize("model", ["bgk", "mermin", "lindhard", "bgk_b"])
def test_evenness_in_q(model):
    for (x, y, q) in random_points(40, seed=13):
        if model == "lindhard":
            a = epsilon_lindhard(x, q, 1.0).epsilon
            b = epsilon_lindhard(x, -q, 1.0).epsilon
        elif model == "bgk":
            a = epsilon_collisional_a(A(x, y, q, 1.0)).epsilon
            b = epsilon_collisional_a(A(x, y, -q, 1.0)).epsilon
        elif model == "mermin":
            a = epsilon_mermin(A(x, y, q, 1.0)).epsilon
            b = epsilon_mermin(A(x, y, -q, 1.0)).epsilon
        else:
            a = epsilon_collisional_b(B(x * q, y * q, q, 1.0)).epsilon
            b = epsilon_collisional_b(B(x * q, y * q, -q, 1.0)).epsilon
        assert abs(a - b) <= 1e-12 * abs(a)


# ---------------------------------------------------------------- reference

def test_mermin_sigma_and_convention_b_match_the_reference_on_the_oracle_box():
    # |x| <= 2, y in [1e-3, 10], q in [0.05, 5], xp in [0.1, 10], the y = 0
    # branch set and q = 2 at least 1e-3 away; Mermin by its three routes,
    # sigma at y = 0 and y > 0, convention B at +-q from the mapped point
    # (x q, y q), whose kernel ratio is the convention-A one at (x, y, |q|)
    rng = random.Random(20261022)
    drawn = 0
    while drawn < 300:
        x, y = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-3.0, 1.0)
        q, xp = rng.uniform(0.05, 5.0), rng.uniform(0.1, 10.0)
        if branch_distance(x, q) < 1e-3 or abs(q - 2.0) < 1e-3:
            continue
        drawn += 1
        checks = [(epsilon_mermin(A(xx, yy, q, xp)).epsilon, ref_mermin(xx, yy, q, xp))
                  for xx, yy in ((0.0, y), (x, 0.0), (x, y))]
        checks += [(sigma_longitudinal(A(x, yy, q, xp)), ref_sigma(x, yy, q)) for yy in (0.0, y)]
        checks += [(epsilon_collisional_b(B(q * x, q * yy, s * q, xp)).epsilon, ref_bgk_b(q * x, q * yy, s * q, xp))
                   for yy in (0.0, y) for s in (1.0, -1.0)]
        for i, (got, ref) in enumerate(checks):
            assert rel_err(got, ref) <= 1e-10, (i, x, y, q, xp, got, ref)


def _x0_draws(seed, n):
    """(x, y, q, xp) at x = +-0: y = 0 or log-uniform in [1e-6, 1e3], q in
    +-[0.05, 5] at least 1e-3 from the branch points +-2."""
    rng = random.Random(seed)
    while n:
        y = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6.0, 3.0)
        q = rng.choice((1.0, -1.0)) * rng.uniform(0.05, 5.0)
        if abs(abs(q) - 2.0) > 1e-3:
            n -= 1
            yield rng.choice((0.0, -0.0)), y, q, rng.uniform(0.0, 10.0)


def test_real_at_x0():
    # exactly: at x = 0 N takes the -q shift as the mirror of the +q one
    for x, y, q, xp in _x0_draws(43, 1500):
        w = abs(q) / 2.0
        values = [
            epsilon_collisional_a(A(x, y, q, xp)).epsilon,
            epsilon_collisional_b(B(x, y, q, xp)).epsilon,
            epsilon_mermin(A(x, y, q, xp)).epsilon,
            epsilon_lindhard(x, q, xp).epsilon,
            epsilon_static_collisional(y, w, xp).epsilon,
            epsilon_static_mermin(w, xp).epsilon,
            *(rows(x, (y,), [q], xp)[0][0] for rows in MODELS.values()),
        ]
        assert [v.imag for v in values] == [0.0] * len(values), (x, y, q, xp, values)


def test_numerator_at_x0_is_within_its_bound():
    # |N - N_ref| <= 16 eps (1 + 2|g(z,+q)|), eps = 2**-52, for y <= 10
    checked = 0
    for x, y, q, _ in _x0_draws(44, 1500):
        if y > 10.0:
            continue
        z = complex(x, y)
        bound = 16.0 * sys.float_info.epsilon * (1.0 + 2.0 * abs(g_a(z, q, +1)))
        assert abs_err(_one(_numerator(z, (q,), "N")), ref_numerator(x, y, q)) <= bound, (z, q)
        checked += 1
    assert checked > 1000, checked


def test_coupling_linearity_exact():
    # (eps - 1) scales exactly by 4 when xp doubles (power-of-two scaling)
    base = epsilon_collisional_a(A(0.3, 0.1, 1.0, 1.3)).epsilon - 1.0
    scaled = epsilon_collisional_a(A(0.3, 0.1, 1.0, 2.6)).epsilon - 1.0
    assert scaled == 4.0 * base


def test_passivity_diagnostic_report():
    # diagnostic only: count Im eps < -1e-12 for x, y > 0 and report
    violations = []
    for (x, y, q) in random_points(150, seed=17, x_range=(0.01, 2.0)):
        v = epsilon_collisional_a(A(x, y, q, 1.0)).epsilon
        if v.imag < -1e-12:
            violations.append((x, y, q, v.imag))
    print(f"passivity diagnostic: {len(violations)} violation(s) on 150 points")
    for row in violations[:5]:
        print("  ", row)
