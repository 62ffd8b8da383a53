"""Independent Fermi-sphere quadratures behind the closed-form kernels.

The dielectric closed forms descend from velocity-space integrals over the
Fermi sphere.  Slicing the sphere into disks perpendicular to the wave
vector reduces them to smooth 1-D integrals, which are evaluated here by
adaptive quadrature and used as the ground truth everything else is checked
against.  In per-k dimensionless variables (u = v_x/v_F, w = u - x and
w+- = u +- q/2 - x), the permittivity eps = 1 + (3/2) xp^2 N / (1 - g0) is
assembled from two integrals, the numerator

    N_quad = (1/2) Int_{-1}^{1} (1 - u^2) / ((y + i w+)(y + i w-)) du,

which equals N = 1 - g(z,+q) + g(z,-q), and the denominator

    (1 - g0)_quad = (1/2) Int_{-1}^{1} i w / (y + i w) du      (y > 1),
    (1 - g0)_quad = 1 - g0_quad                                (y <= 1),
    g0_quad(x, y) = (y/2) Int_{-1}^{1} du / (y + i w),

where g0_quad equals g0_a(x + i y) directly (the spherical-shell prefactor
cancels in this normalisation).  N's integrand is the difference of the
two fractions (1 - u^2)/(y + i w+-) combined under the integral sign,
1/(y + i w+) - 1/(y + i w-) = -i q / ((y + i w+)(y + i w-)), whose q
cancels the prefactor's exactly; 1 - y/(y + i w) = i w / (y + i w) is
combined the same way.  ``epsilon_from_quadrature`` assembles eps from
these alone, providing an end-to-end cross-check of
``epsilon_collisional_a`` that shares no code path with it beyond complex
arithmetic.

Neither integral cancels.  N's integrand is no difference of nearly equal
terms: its parts are (1 - u^2)(y^2 - w+ w-) and -(1 - u^2) 2 y w over
(y^2 + w+^2)(y^2 + w-^2), where y^2 - w+ w- only changes sign along u.
Those of i w / (y + i w) are w^2 and w y over y^2 + w^2, with no
subtraction at all.  For y <= 1, |g0| < 0.8, so 1 - g0_quad loses at most
2 bits; there the direct integrand would be worse, as its real part dips
from 1 to 0 over a width y that QUADPACK does not sample once it has
bisected at u = x, and it returned (1 - g0) off by ~y for y <= 1e-5
without an error.  g0's integrand has a peak of height 1/y there instead,
which QUADPACK resolves or stalls on.  Where y and |q| are both small, Re
N's integrand has lobes of either sign, of size ~1/(y max(y, |q|/2)), that
add up to a value of order 1.  QUADPACK sees them and may stop there with
ToleranceNotReached (roundoff); the two fractions integrated apart and then
subtracted, whose leading parts cancel (about 10 digits are lost at
q = 1e-6), returned wrong digits there instead.

The 1-D integrals are smooth for y > 0, so the adaptive Gauss-Kronrod
scheme from scipy (QUADPACK) with its embedded error estimate is used on
the real and imaginary parts separately, four real calls per permittivity.
Every integrand part is a plain float function of u, so QUADPACK calls one
Python frame per node and builds no complex temporaries.  For g0_quad and
for the factors of N's scaled form the two parts of
n(u) / (y + i(u + h - x)) repeat CPython's complex division operation for
operation, so they equal the parts of the complex quotient bit for bit.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .dielectric import DimensionlessPointA, epsilon_collisional_a
from .errors import NonFiniteResult, NonUpperHalfPlane, PoleOnContour, ToleranceNotReached
from .kernels import _divisor, _number, _require_finite, _square

__all__ = [
    "QuadratureSpec",
    "g0_quadrature",
    "epsilon_from_quadrature",
    "oracle_scan",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive-quadrature budget: absolute/relative tolerance and the
    maximum number of subinterval bisections."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError(f"tolerances must be finite, got {self.abs_tol!r} and {self.rel_tol!r}")
        if not isinstance(self.max_subdivisions, numbers.Integral):
            raise ValueError(f"max_subdivisions must be an integer, got {self.max_subdivisions!r}")
        if self.max_subdivisions < 64:
            raise ValueError("max_subdivisions must be at least 64")


DEFAULT_SPEC = QuadratureSpec()
_SCAN_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)  # oracle_scan's tighter budget

# y and |x| + |q| within which the plain integrands neither overflow nor underflow to 0
_PLAIN_MIN, _PLAIN_MAX = 2.0 ** -100, 2.0 ** 100


def _quad_real(f, spec: QuadratureSpec) -> tuple[float, float]:
    ret = integrate.quad(
        f, -1.0, 1.0,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=1,
    )
    if len(ret) > 3:
        raise ToleranceNotReached(
            f"quadrature stalled (estimate {ret[1]:.3e}): {ret[3]}"
        )
    return ret[0], ret[1]


def _quad_parts(re, im, spec: QuadratureSpec) -> tuple[complex, float]:
    re_val, re_err = _quad_real(re, spec)
    im_val, im_err = _quad_real(im, spec)
    return complex(re_val, im_val), re_err + im_err


def _fraction_parts(x: float, y: float, h: float, weighted: bool):
    """The real and imaginary parts of n(u) / (y + i(u + h - x)) as two float
    functions of u, with n = 1 - u^2 if ``weighted`` else 1, for y > 0.

    Each part repeats CPython's division of n + 0j by y + 1j*w, w = u + h - x,
    scaled by the larger of y and |w|, operation for operation, signed zeros
    included (only n + 0.0*t, which is n for n >= +0, is left out), so it
    equals the part of the complex quotient bit for bit wherever w is
    finite.  Where u + h - x overflows, the complex integrand is nan
    everywhere on the segment, so a quadrature of it stalls: that raises
    ToleranceNotReached here, from w at the ends (w is monotone in u).
    """
    if not (math.isfinite(-1.0 + h - x) and math.isfinite(1.0 + h - x)):
        raise ToleranceNotReached(f"u + h - x is not finite on [-1, 1] (x={x!r}, h={h!r})")

    def re(u):
        n = 1.0 - u * u if weighted else 1.0
        w = u + h - x
        if abs(w) > y:  # not taken for a nan y, where w may be 0
            t = y / w
            return (n * t + 0.0) / (y * t + w)
        t = w / y
        return n / (y + w * t)

    def im(u):
        n = 1.0 - u * u if weighted else 1.0
        w = u + h - x
        if abs(w) > y:
            t = y / w
            return (0.0 * t - n) / (y * t + w)
        t = w / y
        return (0.0 - n * t) / (y + w * t)

    return re, im


def g0_quadrature(x: float, y: float, spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """Spherical-shell integral (y/2) Int du/(y + i(u - x)); equals
    g0_a(x + i y).  Needs y > 0; a non-finite argument or result raises
    NonFiniteResult."""
    x, y = _number(x, "g0_quadrature"), _number(y, "g0_quadrature")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFiniteResult(f"g0_quadrature needs finite arguments, got {(x, y)!r}")
    if y <= 0.0:
        raise PoleOnContour("g0 quadrature needs y > 0 (pole on the segment otherwise)")
    value, _ = _quad_parts(*_fraction_parts(x, y, 0.0, False), spec)
    return _require_finite((y / 2.0) * value, "g0_quadrature")


def _numerator_parts(x: float, y: float, q: float):
    """The real and imaginary parts of (1 - u^2) / ((y + i a)(y + i b)),
    a = w + q/2, b = w - q/2, w = u - x, as two float functions of u, for
    y > 0 and q != 0.

    Where no square or product below can overflow or underflow to 0
    (2^-100 <= y <= 2^100 and |x| + |q| <= 2^100), they are the plain
    quotients (1 - u^2)(y^2 - a b) / ((y^2 + a^2)(y^2 + b^2)) and
    -(1 - u^2) 2 y w / ((y^2 + a^2)(y^2 + b^2)).  Elsewhere each factor is
    scaled on its own by ``_fraction_parts``, which also raises
    ToleranceNotReached where a shift leaves double range on [-1, 1], and a
    part whose value at a node is not finite (its peak, of order
    1/(y max(y, |q|)), overflows) raises NonFiniteResult.
    """
    h = q / 2.0
    if _PLAIN_MIN <= y <= _PLAIN_MAX and abs(x) + abs(q) <= _PLAIN_MAX:
        y2, two_y = y * y, 2.0 * y

        def re(u):
            w = u - x
            a = w + h
            b = w - h
            return (1.0 - u * u) * (y2 - a * b) / ((y2 + a * a) * (y2 + b * b))

        def im(u):
            w = u - x
            a = w + h
            b = w - h
            return (u * u - 1.0) * two_y * w / ((y2 + a * a) * (y2 + b * b))

        return re, im
    re_p, im_p = _fraction_parts(x, y, h, True)
    re_m, im_m = _fraction_parts(x, y, -h, False)

    def checked(part):
        # QUADPACK must not see inf or nan: scipy's can crash the process on them
        def f(u):
            v = part(u)
            if not math.isfinite(v):
                raise NonFiniteResult(f"the N integrand leaves double range at u={u!r} (x={x!r}, y={y!r}, q={q!r})")
            return v

        return f

    return (checked(lambda u: re_p(u) * re_m(u) - im_p(u) * im_m(u)),
            checked(lambda u: re_p(u) * im_m(u) + im_p(u) * re_m(u)))


def _denominator_parts(x: float, y: float):
    """The real and imaginary parts of i w / (y + i w), w = u - x, as two
    float functions of u, for y > 0: w^2/(y^2 + w^2) and w y/(y^2 + w^2),
    written in t = y/w or w/y, whichever is at most 1 in size, so that no
    square overflows or underflows to 0.
    """

    def re(u):
        w = u - x
        if abs(w) > y:
            t = y / w
            return 1.0 / (1.0 + t * t)
        t = w / y
        return t * t / (1.0 + t * t)

    def im(u):
        w = u - x
        t = y / w if abs(w) > y else w / y
        return t / (1.0 + t * t)

    return re, im


def epsilon_from_quadrature(
    x: float, y: float, q: float, xp: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> complex:
    """Permittivity assembled from two quadratures only:

        eps = 1 + (3/2) xp^2 * N_quad / (1 - g0)_quad,
        N_quad = (1/2) Int (1 - u^2) / ((y + i w+)(y + i w-)) du,
        (1 - g0)_quad = (1/2) Int i w / (y + i w) du,

    with w+- = u +- q/2 - x and w = u - x, over u in [-1, 1]; for y <= 1,
    (1 - g0)_quad is 1 - g0_quadrature(x, y) instead (see the module
    docstring).  Four real QUADPACK calls per point.

    Raises, in this order: NonFiniteResult for a non-finite argument,
    NonUpperHalfPlane for y < 0, PoleOnContour for y = 0 and
    NonFiniteResult for q = 0, all before any quadrature runs;
    ToleranceNotReached where a shift u +- q/2 - x leaves double range on
    [-1, 1] or QUADPACK stalls; NonFiniteResult where the N integrand
    leaves double range, N_quad is below the normal range (subnormal or 0),
    xp^2 overflows, (1 - g0)_quad is 0 or the result is not finite.
    """
    if not all(math.isfinite(_number(v, "epsilon_from_quadrature")) for v in (x, y, q, xp)):
        raise NonFiniteResult(f"epsilon_from_quadrature needs finite arguments, got {(x, y, q, xp)!r}")
    x, y, q = float(x), float(y), float(q)
    if y < 0.0:
        raise NonUpperHalfPlane("quadrature is defined for y >= 0")
    if y == 0.0:
        raise PoleOnContour("epsilon_from_quadrature needs y > 0: at y = 0 the integrands' poles lie on the real axis")
    if q == 0.0:
        raise NonFiniteResult("epsilon_from_quadrature needs q != 0, as the closed forms do")
    n_quad = 0.5 * _quad_parts(*_numerator_parts(x, y, q), spec)[0]
    if abs(n_quad) < sys.float_info.min:
        raise NonFiniteResult(f"N_quad underflows below the normal range at {(x, y, q)!r}")
    coupling = 1.5 * _square(xp, "xp")
    if y <= 1.0:
        # |g0| < 0.8 here, so 1 - g0 loses at most 2 bits; g0's Lorentzian
        # peak of height 1/y is what QUADPACK resolves (or stalls on), where
        # the direct integrand's dip of depth 1 and width y goes unseen
        den = 1.0 - g0_quadrature(x, y, spec)
    else:
        den = 0.5 * _quad_parts(*_denominator_parts(x, y), spec)[0]
    den = _divisor(den, "1 - g0_quad")
    return _require_finite(1.0 + coupling * n_quad / den, "epsilon_from_quadrature")


def oracle_scan(n_points: int = 200, seed: int = 0) -> tuple[float, tuple[float, float, float]]:
    """Compare the closed-form permittivity against the quadrature assembly
    on random points with x in [-2, 2], y in [1e-3, 10], q in [0.05, 5] and
    xp = 1, at the tolerances abs 1e-13, rel 1e-11.

    Returns (max relative error, worst point).  Used by ``qplasma verify``
    and the acceptance suite.
    """
    if not isinstance(n_points, numbers.Integral) or n_points < 1:
        raise ValueError(f"n_points must be an integer >= 1, got {n_points!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_pt = (0.0, 0.0, 0.0)
    for _ in range(n_points):
        x = float(rng.uniform(-2.0, 2.0))
        y = float(rng.uniform(1e-3, 10.0))
        q = float(rng.uniform(0.05, 5.0))
        closed = epsilon_collisional_a(DimensionlessPointA(x, y, q, 1.0)).epsilon
        quad = epsilon_from_quadrature(x, y, q, 1.0, _SCAN_SPEC)
        rel = abs(closed - quad) / abs(quad)
        if rel > worst:
            worst, worst_pt = rel, (x, y, q)
    return worst, worst_pt
