"""The Fermi-sphere quadratures against the closed forms they certify."""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from conftest import random_points
from reference import ref_bgk, rel_err

from qplasma.dielectric import DimensionlessPointA, epsilon_collisional_a
from qplasma import quadrature
from qplasma.errors import NonFiniteResult, NonUpperHalfPlane, PoleOnContour, ToleranceNotReached
from qplasma.kernels import g0_a
from qplasma.quadrature import (
    QuadratureSpec,
    _denominator_parts,
    _fraction_parts,
    _numerator_parts,
    epsilon_from_quadrature,
    g0_quadrature,
    oracle_scan,
)

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)


def test_g0_quadrature_matches_kernel():
    quad = g0_quadrature(0.5, 0.1, TIGHT)
    assert abs(quad - g0_a(0.5 + 0.1j)) / abs(quad) < 1e-10


def test_g0_quadrature_real_at_x0():
    val = g0_quadrature(0.0, 0.7, TIGHT)
    assert abs(val.imag) < 1e-13


def test_g0_quadrature_needs_positive_y():
    with pytest.raises(PoleOnContour):
        g0_quadrature(0.5, 0.0)


def test_assembled_epsilon_matches_closed_form():
    for (x, y, q) in random_points(25, seed=29, y_range=(1e-3, 10.0)):
        closed = epsilon_collisional_a(DimensionlessPointA(x, y, q, 1.0)).epsilon
        quad = epsilon_from_quadrature(x, y, q, 1.0, TIGHT)
        assert abs(closed - quad) / abs(quad) < 1e-8


def test_epsilon_from_quadrature_conjugation_symmetry():
    # eps(-x) = conj eps(x), as for the closed forms: the integrands at -x are
    # the conjugates of those at x, mirrored in u; both denominators, y <= 1
    # (1 - g0_quad) and y > 1 (the i w/(y + i w) integral), are covered
    rng = random.Random(20261019)
    box = [(rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-3.0, 1.0), rng.uniform(0.05, 5.0)) for _ in range(40)]
    points = [(0.3, 0.1, 0.8), (1.1, 0.7, 2.4)] + box
    assert {y <= 1.0 for _, y, _ in points} == {True, False}
    for (x, y, q) in points:
        plus = epsilon_from_quadrature(x, y, q, 1.0)
        minus = epsilon_from_quadrature(-x, y, q, 1.0)
        assert abs(minus - plus.conjugate()) <= 1e-14 * abs(plus), (x, y, q)


def test_error_estimates_are_honest():
    # halving tolerances moves the result by less than the reported estimate
    parts = _fraction_parts(0.3, 0.01, 0.0, True)  # (1 - u^2) / (0.01 + i(u - 0.3))
    loose = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-6)
    tight = QuadratureSpec(abs_tol=5e-9, rel_tol=5e-7)
    v1, err1 = quadrature._quad_parts(*parts, loose)
    v2, _ = quadrature._quad_parts(*parts, tight)
    assert abs(v1 - v2) <= err1 + 1e-15


def test_tolerance_not_reached():
    # a 1e-7-wide peak cannot be resolved to 1e-13 with 64 bisections
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=64)
    with pytest.raises(ToleranceNotReached):
        g0_quadrature(0.3, 1e-7, spec)


def test_spec_validation():
    # abs_tol = rel_tol = inf accepted any first estimate: eps came back
    # as -1.73+0.39j at (0.3, 1e-3, 0.8, 1), against 3.51+1.41j
    for kwargs in ({"abs_tol": 0.0}, {"max_subdivisions": 32},
                   {"abs_tol": math.inf, "rel_tol": math.inf}, {"abs_tol": math.inf}, {"rel_tol": math.inf},
                   {"abs_tol": math.nan}, {"rel_tol": math.nan},
                   {"max_subdivisions": 100.5}, {"max_subdivisions": 100.0}):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


def test_spec_accepts_numpy_integer_budget():
    assert QuadratureSpec(max_subdivisions=np.int64(100)).max_subdivisions == 100


@pytest.mark.parametrize("n_points", [0, -5, 2.7, 1.0])
def test_oracle_scan_rejects_bad_point_counts(n_points):
    with pytest.raises(ValueError):
        oracle_scan(n_points)


def test_fraction_parts_equal_complex_division_bit_for_bit():
    # adversarial draw: both scalings |w| <= y and |w| > y, w = 0 exactly,
    # u at +-1 and +-0, y from the smallest subnormal to the largest double
    rng = random.Random(20240918)
    branches = {"w=0": 0, "|w|<=y": 0, "|w|>y": 0}
    for _ in range(20000):
        u = rng.choice((-1.0, 1.0, 0.0, -0.0, rng.uniform(-1.0, 1.0), rng.uniform(-1e-300, 1e-300)))
        y = rng.choice((5e-324, 1e-310, 1e308, 1.7976931348623157e308,
                        10.0 ** rng.uniform(-323.0, 308.0), 10.0 ** rng.uniform(-3.0, 1.0)))
        h = rng.choice((0.0, -u, rng.uniform(-3.0, 3.0), rng.choice((1.0, -1.0)) * rng.uniform(0.025, 2.5)))
        target = rng.choice((0.0, y, -y, y * 10.0 ** rng.uniform(-3.0, 3.0), -y * 10.0 ** rng.uniform(-3.0, 3.0),
                             rng.uniform(-4.0, 4.0)))
        x = u + h - target
        w = u + h - x
        if not (math.isfinite(x) and math.isfinite(w)):
            continue
        branches["w=0" if w == 0.0 else "|w|<=y" if abs(w) <= y else "|w|>y"] += 1
        for weighted in (True, False):
            n = 1.0 - u * u if weighted else 1.0
            ref = n / (y + 1j * (u + h - x))
            re, im = _fraction_parts(x, y, h, weighted)
            # float.hex, unlike ==, tells -0.0 from 0.0
            assert (re(u).hex(), im(u).hex()) == (ref.real.hex(), ref.imag.hex()), (u, x, y, h, weighted)
    assert min(branches.values()) > 1000, branches


def test_fraction_parts_reproduce_the_complex_integrand_quadratures():
    # the parts feed QUADPACK the same values, so the results are identical
    for (x, y) in [(0.3, 0.1), (1.1, 1e-3), (-1.7, 7.0)]:
        def f(u):
            return 1.0 / (y + 1j * (u - x))

        old, _ = quadrature._quad_parts(lambda u: f(u).real, lambda u: f(u).imag, quadrature.DEFAULT_SPEC)
        assert g0_quadrature(x, y) == (y / 2.0) * old


def test_overflowing_shift_raises_tolerance_not_reached():
    # u - q/2 - x overflows: the complex integrand is nan on the whole segment
    with pytest.raises(ToleranceNotReached):
        epsilon_from_quadrature(1e308, 1.0, -1.7e308, 1.0)


def test_fraction_parts_are_nan_for_a_nan_y_even_where_w_is_zero():
    # u + h - x rounds to 0 on the whole segment; the complex quotient by
    # nan + 0j is nan, so the parts must be nan too, not divide by w = 0
    re, im = _fraction_parts(-1e300, math.nan, -1e300, True)
    assert math.isnan(re(0.5)) and math.isnan(im(0.5))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_arguments_raise_before_quadpack_runs(bad, monkeypatch):
    # a nan y used to spend the whole subdivision budget (ToleranceNotReached),
    # a non-finite x or q failed the shift check, and y = inf returned 0j
    def never(*args):
        raise AssertionError("QUADPACK ran")

    monkeypatch.setattr(quadrature, "_quad_real", never)
    for args in ((bad, 1.0), (0.3, bad)):
        with pytest.raises(NonFiniteResult, match="g0_quadrature needs finite arguments"):
            g0_quadrature(*args)
    for args in ((bad, 0.1, 1.0, 1.0), (0.3, bad, 1.0, 1.0), (0.3, 0.1, bad, 1.0), (0.3, 0.1, 1.0, bad)):
        with pytest.raises(NonFiniteResult, match="epsilon_from_quadrature needs finite arguments"):
            epsilon_from_quadrature(*args)


# (x, y, q, xp), the error class, and whether QUADPACK may run before it is
# raised; non-finite arguments, xp^2 overflow and an overflowing shift are
# pinned in test_non_finite_arguments_raise_before_quadpack_runs,
# tests/test_typed_errors.py and test_overflowing_shift_raises_tolerance_not_reached
_ORACLE_ERRORS = [
    ((0.3, -0.1, 1.0, 1.0), NonUpperHalfPlane, False),
    ((0.3, -0.1, 0.0, 1.0), NonUpperHalfPlane, False),
    ((0.3, 0.0, 0.8, 1.0), PoleOnContour, False),  # both poles on the segment
    ((3.0, 0.0, 1.0, 1.0), PoleOnContour, False),  # both poles off it
    ((3.0, 0.0, 0.0, 1.0), PoleOnContour, False),
    ((0.3, 0.1, -0.0, 1.0), NonFiniteResult, False),  # eps needs q != 0, though N_quad is finite there
    ((-5e-324, 1e-170, 1e-170, 1.0), NonFiniteResult, True),  # the N integrand's peak ~ 1/y^2 overflows
    ((0.3, 1e156, 1.0, 1e150), NonFiniteResult, True),  # N_quad ~ 1/y^2 is subnormal
]


@pytest.mark.parametrize("args, error, integrates", _ORACLE_ERRORS)
def test_epsilon_from_quadrature_error_contract(args, error, integrates, monkeypatch):
    if not integrates:
        def never(*a):
            raise AssertionError("QUADPACK ran")

        monkeypatch.setattr(quadrature, "_quad_real", never)
    with pytest.raises(error):
        epsilon_from_quadrature(*args)


@pytest.mark.parametrize("y", [0.1, 3.0, 1e-40, 2.0 ** -101, 2.0 ** 101, 1e200])
def test_integrand_parts_match_the_exact_quotients(y):
    # dyadic x, q and u make every shift exact, so N's plain quotients
    # (y = 0.1, 3), its scaled ones (y outside [2^-100, 2^100]) and the
    # t-form of i w/(y + i w) are checked against the exact complex values
    # to a few ulps (or to the smallest normal double, where the value
    # underflows)
    rng = random.Random(41)
    for x, q in [(0.375, 0.75), (-1.25, 0.5), (0.0, 2.0 ** -20), (2.5, -3.0)]:
        n_re, n_im = _numerator_parts(x, y, q)
        d_re, d_im = _denominator_parts(x, y)
        for u in (-1.0, 1.0, 0.0, x, x + q / 2.0, x - q / 2.0, *(rng.randint(-1024, 1024) / 1024.0 for _ in range(50))):
            if abs(u) > 1.0:
                continue
            with mp.workdps(40):
                w, yy = mp.mpf(u) - mp.mpf(x), mp.mpf(y)
                n = (1 - mp.mpf(u) ** 2) / ((yy + 1j * (w + mp.mpf(q) / 2)) * (yy + 1j * (w - mp.mpf(q) / 2)))
                d = 1j * w / (yy + 1j * w)
                for (re, im), ref in (((n_re, n_im), n), ((d_re, d_im), d)):
                    got = mp.mpc(re(u), im(u))
                    assert abs(got - ref) <= 1e-15 * abs(ref) + 2.0 ** -1022, (x, y, q, u, got, ref)


# the y > 0 rows of the accuracy table in ROADMAP.md (item 3)
_TABLE_ROWS = [(1e3, 0.1, 1.0, 1.0), (1e5, 1.0, 1.0, 1.0), (0.3, 1e3, 1.0, 1.0), (0.3, 1e5, 1.0, 1.0),
               (0.3, 0.1, 1e-6, 1.0)]


def test_epsilon_from_quadrature_is_exact_to_1e_14():
    # at the default spec, small q included
    rng = random.Random(20261018)
    box = [(rng.uniform(-2.0, 2.0), rng.uniform(1e-3, 10.0), rng.uniform(0.05, 5.0), 1.0) for _ in range(50)]
    for args in _TABLE_ROWS + box:
        assert rel_err(epsilon_from_quadrature(*args), ref_bgk(*args)) < 1e-14, args


@pytest.mark.parametrize("q", [1e-6, 1.0])
@pytest.mark.parametrize("x", [0.0, 0.5, -0.5, 0.25])
def test_small_y_raises_or_is_right(x, q):
    # the 1 - g0 integrand i w/(y + i w) dips from 1 to 0 over a width y that
    # QUADPACK never samples once it has bisected at u = x: for y <= 1e-4 it
    # returned eps off by ~y, e.g. 3.99995 for 4.0 at (0, 1e-5, 1e-6, 1)
    for y in (1e-5, 1e-6, 1e-8):
        try:
            got = epsilon_from_quadrature(x, y, q, 1.0)
        except ToleranceNotReached:
            continue
        assert rel_err(got, ref_bgk(x, y, q, 1.0)) < 1e-9, (x, y, q, got)
