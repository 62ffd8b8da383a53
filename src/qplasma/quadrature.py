"""Independent Fermi-sphere quadratures behind the closed-form kernels.

The dielectric closed forms descend from two velocity-space integrals over
the Fermi sphere.  Slicing the sphere into disks perpendicular to the wave
vector reduces them to smooth 1-D integrals, which are evaluated here by
adaptive quadrature and used as the ground truth everything else is checked
against.  In per-k dimensionless variables (u = v_x/v_F):

    Jt_pm(x, y, q) = pi * Int_{-1}^{1} (1 - u^2) / (y + i(u +- q/2 - x)) du

with the pole of Jt_+ at u = x - q/2 and of Jt_- at u = x + q/2 (the
shifted frequency pairs "across" the superscript), and

    g0_quad(x, y)  = (y/2) * Int_{-1}^{1} du / (y + i(u - x)),

which equals g0_a(x + i y) directly (the spherical-shell prefactor cancels
in this normalisation).  Antiderivatives give the closed forms

    Jt_pm = pi * (2 i zeta - i (zeta^2 - 1) ln((zeta+1)/(zeta-1))),
    zeta = x -+ q/2 + i y,

and the difference factorises through the dielectric numerator:

    Jt_+ - Jt_- = -2 pi i q (1 - g(z,+q) + g(z,-q)).

``epsilon_from_quadrature`` assembles the full permittivity from the two
quadratures alone, providing an end-to-end cross-check of
``epsilon_collisional_a`` that shares no code path with it beyond complex
arithmetic.

The 1-D integrals are smooth for y > 0, so the adaptive Gauss-Kronrod
scheme from scipy (QUADPACK) with its embedded error estimate is used on
the real and imaginary parts separately.  For y > 0 the two parts of
n(u) / (y + i(u + h - x)) are plain float functions of u: each repeats
CPython's complex division operation for operation, so it equals the part
of the complex quotient bit for bit, and QUADPACK calls one Python frame
per node instead of two plus three complex temporaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .dielectric import DimensionlessPointA, _divisor, _square, epsilon_collisional_a
from .errors import NonFiniteResult, NonUpperHalfPlane, PoleOnContour, ToleranceNotReached
from .kernels import _VALID_SIGNS, _require_finite, clog_ratio

__all__ = [
    "QuadratureSpec",
    "quad_complex",
    "j_pm_quadrature",
    "j_closed_form",
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


def quad_complex(f, spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[complex, float]:
    """Integrate a complex-valued integrand over [-1, 1].

    Returns (value, error_estimate); the estimate is the summed QUADPACK
    estimates of the real and imaginary parts.
    """
    return _quad_parts(lambda u: f(u).real, lambda u: f(u).imag, spec)


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


def _zeta(x: float, y: float, q: float, sign: int) -> complex:
    # J_+ pairs with the down-shifted frequency x - q/2 and vice versa.
    return complex(x - sign * q / 2.0, y)


def j_pm_quadrature(
    x: float, y: float, q: float, sign: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> complex:
    """Fermi-sphere integral Jt_pm by adaptive quadrature.

    Needs y > 0, or y = 0 with the real pole x -+ q/2 outside [-1, 1]
    (PoleOnContour otherwise).  A non-finite argument or result raises
    NonFiniteResult.
    """
    if sign not in _VALID_SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    x, y, q = float(x), float(y), float(q)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(q)):
        raise NonFiniteResult(f"j_pm_quadrature needs finite arguments, got {(x, y, q)!r}")
    if y < 0.0:
        raise NonUpperHalfPlane("quadrature is defined for y >= 0")
    if y == 0.0:
        c = x - sign * q / 2.0
        if abs(c) <= 1.0:
            raise PoleOnContour(f"pole at u={c} lies on the integration segment")
        value, _ = quad_complex(lambda u: -1j * (1.0 - u * u) / (u - c), spec)
    else:
        value, _ = _quad_parts(*_fraction_parts(x, y, sign * q / 2.0, True), spec)
    return _require_finite(math.pi * value, "j_pm_quadrature")


def j_closed_form(x: float, y: float, q: float, sign: int) -> complex:
    """Closed form of Jt_pm:  pi (2 i zeta - i (zeta^2 - 1) L(zeta)) with
    zeta = x -+ q/2 + i y."""
    if sign not in _VALID_SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    zeta = _zeta(float(x), float(y), float(q), sign)
    return math.pi * (2j * zeta - 1j * (zeta * zeta - 1.0) * clog_ratio(zeta))


def g0_quadrature(x: float, y: float, spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """Spherical-shell integral (y/2) Int du/(y + i(u - x)); equals
    g0_a(x + i y).  Needs y > 0; a non-finite argument or result raises
    NonFiniteResult."""
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFiniteResult(f"g0_quadrature needs finite arguments, got {(x, y)!r}")
    if y <= 0.0:
        raise PoleOnContour("g0 quadrature needs y > 0 (pole on the segment otherwise)")
    value, _ = _quad_parts(*_fraction_parts(x, y, 0.0, False), spec)
    return _require_finite((y / 2.0) * value, "g0_quadrature")


def epsilon_from_quadrature(
    x: float, y: float, q: float, xp: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> complex:
    """Permittivity assembled from quadratures only:

        eps = 1 + (3/2) xp^2 * N_quad / (1 - g0_quad),
        N_quad = (Jt_+ - Jt_-) / (-2 pi i q).

    A non-finite argument or result raises NonFiniteResult.
    """
    if not all(math.isfinite(v) for v in (x, y, q, xp)):
        raise NonFiniteResult(f"epsilon_from_quadrature needs finite arguments, got {(x, y, q, xp)!r}")
    jp = j_pm_quadrature(x, y, q, +1, spec)
    jm = j_pm_quadrature(x, y, q, -1, spec)
    n_quad = (jp - jm) / _divisor(-2j * math.pi * q, "2 pi q")
    coupling = 1.5 * _square(xp, "xp")
    den = _divisor(1.0 - g0_quadrature(x, y, spec), "1 - g0_quad")
    return _require_finite(1.0 + coupling * n_quad / den, "epsilon_from_quadrature")


def oracle_scan(
    n_points: int = 200,
    seed: int = 0,
    xp: float = 1.0,
    spec: QuadratureSpec | None = None,
) -> tuple[float, tuple[float, float, float]]:
    """Compare the closed-form permittivity against the quadrature assembly
    on random points with x in [-2, 2], y in [1e-3, 10], q in [0.05, 5].

    Returns (max relative error, worst point).  Used by ``qplasma verify``
    and the acceptance suite.
    """
    if not isinstance(n_points, numbers.Integral) or n_points < 1:
        raise ValueError(f"n_points must be an integer >= 1, got {n_points!r}")
    if spec is None:
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_pt = (0.0, 0.0, 0.0)
    for _ in range(n_points):
        x = float(rng.uniform(-2.0, 2.0))
        y = float(rng.uniform(1e-3, 10.0))
        q = float(rng.uniform(0.05, 5.0))
        closed = epsilon_collisional_a(DimensionlessPointA(x, y, q, xp)).epsilon
        quad = epsilon_from_quadrature(x, y, q, xp, spec)
        rel = abs(closed - quad) / abs(quad)
        if rel > worst:
            worst, worst_pt = rel, (x, y, q)
    return worst, worst_pt
