"""Kernel tests: branch handling of the shared logarithm and the g-family."""

import cmath
import math
import random

import mpmath as mp
import pytest
from conftest import random_points
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import MP_DIGITS, _L, _g, _n, _z

from qplasma.errors import (
    DegenerateQ,
    NonFiniteResult,
    NonUpperHalfPlane,
    PoleAtBranchPoint,
)
from qplasma.kernels import _numerator, clog_ratio, g0_a, g0_b, g_a, g_b

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098


# ---------------------------------------------------------------- clog_ratio

def test_clog_ratio_real_argument_outside_unit_interval():
    # (3+1)/(3-1) = 2, both factors positive real
    v = clog_ratio(3.0 + 0j)
    assert v.imag == 0.0
    assert v.real == pytest.approx(LN2, abs=1e-15)


def test_clog_ratio_origin_is_upper_limit():
    # independent oracle: approach the real axis from above
    limit = cmath.log((1 + 1e-12j) / (-1 + 1e-12j))
    v = clog_ratio(0j)
    assert v == complex(0.0, -math.pi)
    assert abs(v - limit) < 1e-8


def test_clog_ratio_at_i():
    # (1+i)/(-1+i) = -i, modulus 1
    v = clog_ratio(1j)
    assert abs(v - (-0.5j * math.pi)) < 1e-15


def test_clog_ratio_branch_points_raise():
    for a in (1.0 + 0j, -1.0 + 0j):
        with pytest.raises(PoleAtBranchPoint):
            clog_ratio(a)


def test_clog_ratio_lower_half_plane_rejected():
    with pytest.raises(NonUpperHalfPlane):
        clog_ratio(0.5 - 0.1j)


def test_clog_ratio_branch_continuity_grid():
    # for |x| < 1 the value is the y -> 0+ limit with imaginary part -pi
    for i in range(39):
        x = -0.95 + i * (1.9 / 38)
        lim = complex(math.log((1 + x) / (1 - x)), -math.pi)
        assert abs(clog_ratio(complex(x, 1e-10)) - lim) < 1e-8


@settings(max_examples=300, deadline=None)
@given(
    re=st.floats(-3.0, 3.0),
    im=st.floats(1e-6, 3.0),
)
def test_clog_ratio_conjugation_property(re, im):
    a = complex(re, im)
    lhs = clog_ratio(-a.conjugate())
    rhs = -clog_ratio(a).conjugate()
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_clog_ratio_no_overflow_near_branch_point():
    # difference-of-logs form stays finite arbitrarily close to +1, where
    # the intermediate ratio (a+1)/(a-1) would overflow
    v = clog_ratio(complex(1.0, 1e-300))
    assert math.isfinite(v.real) and math.isfinite(v.imag)
    assert v.real > 690.0


# ---------------------------------------------------------------------- g0_a

def test_g0_a_vanishes_on_real_axis():
    for x in (-2.0, -1.0, 0.0, 0.5, 1.0, 7.0):
        assert g0_a(complex(x, 0.0)) == 0j


def test_g0_a_at_i():
    assert abs(g0_a(1j) - math.pi / 4) < 1e-15


def test_g0_a_interior_point_snapshot():
    # cross-checked against the shell quadrature in test_quadrature
    v = g0_a(0.5 + 0.1j)
    assert v == pytest.approx(0.14388144649820445 + 0.054060961531270095j, rel=1e-14)


def test_g0_a_large_y_asymptote():
    # iy/2 ln((iy+1)/(iy-1)) ~ 1 - 1/(3 y^2)
    assert abs(g0_a(100j) - 1.0) < 1e-3


def test_g0_a_uniform_decay_to_zero():
    xs = [x / 10 for x in range(-20, 21) if min(abs(abs(x / 10) - 1.0), 1) > 0.1]
    prev = None
    for y in (1e-4, 1e-6, 1e-8):
        worst = max(abs(g0_a(complex(x, y))) for x in xs)
        assert worst < 10.0 * y * max(1.0, -math.log(y))
        if prev is not None:
            assert worst < prev
        prev = worst


# ----------------------------------------------------------------------- g_a

def test_g_a_shifted_origin():
    # z + q/2 = 0 with q=2: (0 - 1)/(2*2) * (-i pi) = i pi/4
    v = g_a(complex(-1.0, 0.0), 2.0, +1)
    assert abs(v - 0.25j * math.pi) < 1e-15


def test_g_a_matches_the_40_digit_reference():
    for (x, y, q) in random_points(25, seed=23, y_range=(1e-3, 10.0)):
        for s in (+1, -1):
            got = g_a(complex(x, y), q, s)
            with mp.workdps(MP_DIGITS):
                ref = _g(_z(x, y), mp.mpf(q), s)
                assert abs(got - ref) <= 1e-13 * abs(ref), (x, y, q, s)


def test_g_a_sign_flip_identity_pointwise():
    z, q = 0.3 + 0.05j, 0.7
    assert g_a(z, -q, +1) == -g_a(z, q, -1)


def test_g_a_real_axis_snapshot():
    # ((0.5)^2 - 1)/2 * (ln 3 - i pi)
    v = g_a(0j, 1.0, +1)
    expected = -0.375 * complex(LN3, -math.pi)
    assert abs(v - expected) < 1e-15


def test_g_a_degenerate_q():
    with pytest.raises(DegenerateQ):
        g_a(0.3 + 0.1j, 0.0, +1)


def test_g_a_rejects_a_sign_other_than_plus_or_minus_one():
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got 2$"):
        g_a(0.3 + 0.1j, 1.0, 2)


def test_g_a_branch_point_raises():
    # z - q/2 = -1 at z=0 (real axis), q=2
    with pytest.raises(PoleAtBranchPoint):
        g_a(0j, 2.0, -1)


def test_g_a_overflow_is_error():
    with pytest.raises(NonFiniteResult):
        g_a(complex(1e200, 1.0), 1.0, +1)


@settings(max_examples=300, deadline=None)
@given(
    re=st.floats(-2.5, 2.5),
    im=st.floats(0.0, 2.5),
    q=st.floats(0.05, 4.0),
    flip=st.booleans(),
)
def test_g_a_antisymmetry_property(re, im, q, flip):
    # g_a(z, -q, +) == -g_a(z, q, -) wherever both are defined
    z = complex(re, im)
    if flip:
        q = -q
    a = z - q / 2.0
    if im == 0.0 and abs(abs(a.real) - 1.0) < 1e-9:
        return
    assert g_a(z, -q, +1) == -g_a(z, q, -1)


# ------------------------------------------------------------- g0_b and g_b

def test_g0_b_vanishes_on_real_axis():
    assert g0_b(complex(0.4, 0.0), 1.3) == 0j


def test_g0_b_scaling_consistency():
    z, q = 0.2 + 0.1j, 0.5
    assert abs(g0_b(z, q) - g0_a(z / q)) < 1e-15


def test_g0_b_q2_equivalence():
    z = 0.01j
    assert abs(g0_b(z, 2.0) - g0_a(z / 2.0)) < 1e-16


def test_g0_b_degenerate_q():
    with pytest.raises(DegenerateQ):
        g0_b(0.1 + 0.1j, 0.0)


def test_g_b_convention_equivalence():
    # x_A = x_B/q, y_A = y_B/q maps the B kernel onto the A kernel
    z, q = 0.1 + 0.05j, 0.8
    for s in (+1, -1):
        assert abs(g_b(z, q, s) - g_a(z / q, q, s)) < 1e-14


def test_g_b_sign_symmetry_exact_above_q2():
    # for q > 2 the static pair differs only in sign
    q = 2.6
    assert g_b(0j, q, -1) == -g_b(0j, q, +1)


def test_g_b_sign_symmetry_below_q2_is_conjugate():
    # below q = 2 the upper-half-plane limit adds -i pi to both kernels, so
    # only the real parts flip sign: g_b(0,q,-) = -conj(g_b(0,q,+))
    q = 1.3
    gm, gp = g_b(0j, q, -1), g_b(0j, q, +1)
    assert abs(gm - (-gp.conjugate())) < 1e-15
    assert gm.real == pytest.approx(-gp.real, abs=1e-15)
    assert gm.imag == pytest.approx(gp.imag, abs=1e-15)


def test_g_b_branch_point_raises():
    # q=2, z=0, plus: u = q^2/2 = q makes the log singular
    with pytest.raises(PoleAtBranchPoint):
        g_b(0j, 2.0, +1)


def test_g_b_even_in_q():
    z = 0.3 + 0.2j
    for s in (+1, -1):
        assert abs(g_b(z, 1.1, s) - g_b(z, -1.1, s)) < 1e-15


def test_kernels_reject_lower_half_plane():
    with pytest.raises(NonUpperHalfPlane):
        g_a(0.5 - 1e-12j, 1.0, +1)
    with pytest.raises(NonUpperHalfPlane):
        g0_b(0.5 - 1e-12j, 1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_kernels_reject_non_finite_arguments(bad):
    for z in (complex(bad, 0.5), complex(0.5, bad)):
        for call in (lambda: clog_ratio(z), lambda: g0_a(z), lambda: g_a(z, 1.0, +1),
                     lambda: g0_b(z, 1.0), lambda: g_b(z, 1.0, -1)):
            with pytest.raises(NonFiniteResult):
                call()
    for s in (+1, -1):
        with pytest.raises(NonFiniteResult):
            g_a(0.3 + 0.1j, bad, s)
        with pytest.raises(NonFiniteResult):
            g_b(0.3 + 0.1j, bad, s)


# ------------------------------------------------------- real-axis accuracy
#
# Re L(r) is 2 atanh(r) inside (-1, 1) and +-log1p(2/(|r| - 1)) outside.
# These tests hold it, and N = 1 - g(x,+q) + g(x,-q) on the real axis,
# against the reference and against the retired real-axis form
# ln|1 + r| - ln|1 - r| (two math.log per shift), written out here.

_U = 2.0 ** -53  # the unit roundoff
# A box's new worst error may exceed the retired form's by 4 u: the last
# roundings of c*L and of 1 - g+ + g- differ between the two forms, so a
# draw whose N is already rounded to a few u can move by that much either way.
_SLACK = 4.0 * _U


def _retired_re_l(r):
    return math.log(abs(1.0 + r)) - math.log(abs(1.0 - r))


def _retired_n(x, q):
    """N at (x + 0j, q) in floats, as the row kernel took it with two logs per shift."""
    terms = []
    for r in (x + q / 2.0, x - q / 2.0):
        c = (r * r - 1.0) / (2.0 * q)
        terms.append((c * _retired_re_l(r), 0.0 if abs(r) > 1.0 else c * -math.pi))
    (gp, tp), (gm, tm) = terms
    return complex((1.0 - gp) + gm, (0.0 - tp) + tm)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _near_a_branch_point(rng):
    """(x, q) whose +q shift x + q/2 lies 1e-13..1e-5 (relative) inside or outside +-1."""
    r = rng.choice((1.0, -1.0)) * (1.0 + rng.choice((1.0, -1.0)) * _log_uniform(rng, 1e-13, 1e-5))
    q = _log_uniform(rng, 0.05, 5.0)
    return r - q / 2.0, q


_REAL_AXIS_BOXES = {
    "|x| <= 2": lambda rng: (rng.uniform(-2.0, 2.0), _log_uniform(rng, 0.05, 5.0)),
    "near a branch point": _near_a_branch_point,
    "|x| up to 1e5": lambda rng: (rng.choice((1.0, -1.0)) * _log_uniform(rng, 2.0, 1e5), _log_uniform(rng, 0.05, 5.0)),
    "x = 0 figure window": lambda rng: (0.0, rng.uniform(1.5, 2.5)),
}


@pytest.mark.parametrize("box", _REAL_AXIS_BOXES)
def test_real_axis_n_and_clog_ratio_against_the_reference(box):
    # 60 digits: at |x| = 1e5, q = 0.05, N ~ 1e-10 is what is left of terms
    # ~ 1e7, and 60 digits keep ~40 of them (checked against 120 digits)
    rng = random.Random(2027)
    worst = dict.fromkeys(("N", "N retired", "Re L", "Re L retired"), 0.0)
    for _ in range(300):
        x, q = _REAL_AXIS_BOXES[box](rng)
        with mp.workdps(60):
            ref = _n(_z(x, 0), mp.mpf(q))
            for key, got in (("N", _numerator(complex(x, 0.0), [q], "N")[0]), ("N retired", _retired_n(x, q))):
                worst[key] = max(worst[key], float(abs(mp.mpc(got) - ref) / abs(ref)))
            for r in (x + q / 2.0, x - q / 2.0):
                ref_l = _L(mp.mpc(r, 0))
                got = clog_ratio(r)
                assert got.imag == (0.0 if abs(r) > 1.0 else -math.pi), (x, q, r)
                for key, re in (("Re L", got.real), ("Re L retired", _retired_re_l(r))):
                    worst[key] = max(worst[key], float(abs(re - ref_l.real) / abs(ref_l.real)))
    assert worst["N"] <= worst["N retired"] + _SLACK, worst
    assert worst["Re L"] <= worst["Re L retired"] + _SLACK, worst
    assert worst["Re L"] <= 4.0 * _U, worst  # one libm call and at most one rounded quotient: ~2 u
    if box == "|x| up to 1e5":  # the retired form cancelled here; N's own cancellation is left
        assert worst["N retired"] > 1e4 and worst["N"] < 1e2, worst


@pytest.mark.parametrize("a", [1e300, 5e15, -3e12, 1e8, 5e-10, -5e-10, 1.7976931348623157e308, 5e-324])
def test_clog_ratio_far_out_and_near_zero_within_a_few_ulp(a):
    # the retired form returned 0j at 1e300 and 5e15, was off by 1.9e-3 at
    # -3e12, 9.5e-8 at 1e8 and 8.3e-8 at 5e-10; (a+1)/(a-1) - 1 ~ 2/a needs
    # ~log10|a| + 20 digits to be resolved, hence 700 at 1e300
    with mp.workdps(700):
        r = mp.mpf(a)
        ref = mp.log(abs((r + 1) / (r - 1)))
        got = clog_ratio(a)
        assert got.imag == (0.0 if abs(a) > 1.0 else -math.pi)
        assert abs(got.real - ref) <= 4.0 * _U * abs(ref), (a, got, float(ref))
