"""Branch-safe logarithmic kernels of the degenerate-plasma dielectric function.

Everything in this module reduces to one multivalued function,

    L(a) = ln((a + 1)/(a - 1)),

taken on the branch that is continuous from the upper half of the complex
a-plane.  Physically the frequency carries a positive infinitesimal
imaginary part (retarded response, exp(-i omega t) convention), so values
on the real axis mean the limit Im(a) -> 0+.  That limit is evaluated
analytically, never by substituting a small imaginary part:

    L(r) = ln|1 + r| - ln|1 - r|  (- i*pi for r inside (-1, 1)),   r real.

That formula is written in two places, both in this module: in _L, the
reference every public kernel evaluates, and inline in _numerator, the
models' per-node fast path for N = 1 - g(z,+q) + g(z,-q).  At a branch
point r = +-1 it is math.log(0.0), whose ValueError _L raises as
PoleAtBranchPoint.

Two kernel families sit on top of L.  Convention A scales frequencies by
k*v_F, with z = (omega + i*nu)/(k v_F) and q = k/k_F:

    g0_a(z)      = (i Im z / 2) * L(z)
    g_a(z, q, s) = ((z + s q/2)^2 - 1) / (2 q) * L(z + s q/2),   s = +-1

Convention B scales by k_F*v_F, with z = (omega + i*nu)/(k_F v_F):

    g0_b(z, q)   = (i Im z / (2 q)) * ln((z + q)/(z - q))
    g_b(z, q, s) = ((u)^2 - q^2) / (2 q^3) * ln((u + q)/(u - q)),
                   u = z + s q^2/2

Both are even in q and are the convention-A kernels under z_A = z_B / |q|,
which is how they are evaluated: g0_b(z, q) = g0_a(z/|q|) and
g_b(z, q, s) = g_a(z/|q|, |q|, s).  Negative q is permitted in
convention A and obeys g_a(z, -q, +1) == -g_a(z, q, -1) identically.

All functions are scalar, pure and binary64.  Each public kernel checks its
argument once (non-finite: NonFiniteResult; Im < 0: NonUpperHalfPlane) and
evaluates L by the unchecked _L (branch point: PoleAtBranchPoint).  L and g0_a
stay finite; g_a checks its result, as z + s q/2 and (a^2 - 1)/(2q) can overflow.
"""

from __future__ import annotations

from cmath import isfinite, log
from math import isfinite as _finite, log as _ln, pi

from .errors import DegenerateQ, NonFiniteResult, NonUpperHalfPlane, PoleAtBranchPoint

__all__ = ["clog_ratio", "g0_a", "g_a", "g0_b", "g_b"]

_VALID_SIGNS = (1, -1)
_MINUS_PI = -pi  # Im L(r) for a real r inside (-1, 1)


def _require_finite(value: complex, what: str) -> complex:
    if not isfinite(value):
        raise NonFiniteResult(f"{what} overflowed or is undefined: {value!r}")
    return value


def _number(v, what: str, kind=float, error=NonFiniteResult):
    """kind(v) of a caller's value; an int beyond double range (OverflowError) raises ``error`` instead."""
    try:
        return kind(v)
    except OverflowError:
        raise error(f"an argument to {what} is beyond double range") from None


def _floats(obj, what: str) -> None:
    """Store each int field of the frozen dataclass obj as a float, through _number."""
    for name, value in vars(obj).items():
        if type(value) is int:
            object.__setattr__(obj, name, _number(value, what))


def _square(v: float, what: str) -> float:
    """v ** 2 of a caller's value, rounded once to a float; an overflow raises NonFiniteResult."""
    try:
        return float(v ** 2)
    except OverflowError:
        raise NonFiniteResult(f"the square of {what} = {v!r} overflows") from None


def _divisor(v: complex, what: str) -> complex:
    """A divisor built from a caller's values; 0 (an underflow or exact cancellation) raises NonFiniteResult."""
    if v == 0.0:
        raise NonFiniteResult(f"{what} is 0, so the quotient is undefined")
    return v


def _as_upper_half(z: complex, what: str) -> complex:
    try:
        z = complex(z)
    except OverflowError:  # an int beyond double range; a try costs no time on the hot path
        z = _number(z, what, complex)
    if not isfinite(z):
        raise NonFiniteResult(f"non-finite argument to {what}: {z!r}")
    if z.imag < 0.0:
        raise NonUpperHalfPlane(f"{what} is defined for Im >= 0 only, got {z!r}")
    return z


def _L(a: complex) -> complex:
    """L(a) for Im a >= 0, unchecked: only a branch point raises; nan/inf in, nan/inf out."""
    if a.imag == 0.0:  # the Im a -> 0+ limit: exactly -i*pi inside (-1, 1)
        x = a.real
        try:
            re = _ln(abs(1.0 + x)) - _ln(abs(1.0 - x))
        except ValueError:  # math.log(0.0): x is +-1
            raise PoleAtBranchPoint(f"clog_ratio argument at branch point {x:+g}") from None
        return complex(re, 0.0 if abs(x) > 1.0 else _MINUS_PI)
    # Im a > 0: a + 1 and a - 1 lie above the real axis; no unwinding needed.
    return log(a + 1.0) - log(a - 1.0)


def clog_ratio(a: complex) -> complex:
    """ln((a+1)/(a-1)) on the branch continuous from the upper half-plane;
    real a is the Im(a) -> 0+ limit.  A difference of logs, so arguments near
    a branch point cannot overflow the intermediate ratio."""
    return _L(_as_upper_half(a, "clog_ratio"))


def g0_a(z: complex) -> complex:
    """Collision-broadening kernel (i Im z / 2) ln((z+1)/(z-1)), convention A.

    Vanishes identically on the real axis (the prefactor is the limit's), so
    real z returns exactly 0 for every x, branch points included.
    """
    z = _as_upper_half(z, "g0_a")
    if z.imag == 0.0:
        return 0.0j
    return 0.5j * z.imag * _L(z)


def g_a(z: complex, q: float, sign: int) -> complex:
    """Shifted Fermi-sphere kernel ((z + s q/2)^2 - 1)/(2q) L(z + s q/2).

    ``sign`` selects the +-q/2 shift (the sign does not touch the 2q
    denominator).  q = 0 raises DegenerateQ; a shifted argument of exactly
    +-1 raises PoleAtBranchPoint.
    """
    if sign not in _VALID_SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    q = _number(q, "g_a")
    if q == 0.0:
        raise DegenerateQ("g_a needs q != 0")
    a = _as_upper_half(z, "g_a") + sign * (q / 2.0)
    return _require_finite((a * a - 1.0) / (2.0 * q) * _L(a), "g_a")


def _numerator(z: complex, q: float) -> complex:
    """N(z, q) = 1 - g(z,+q) + g(z,-q), for a checked z and q != 0.

    On the real axis (z.imag == 0.0) N is evaluated in floats, bit for bit
    equal to g_a.  With r = x +- q/2 and c = (r*r - 1)/(2q), each g is
    c*(ln|1 + r| - ln|1 - r|), the real part of _L(r); a shift inside
    (-1, 1) adds c*(-pi) to Im g, one outside a zero whose sign cancels out
    of 1 - g+ + g-.  (c*(-pi) underflows to 0 only where 2q overflows, which
    leaves r = 0 as the one shift inside, and there Im g is the same signed
    zero.)  A shift on a branch point (the ValueError of math.log(0.0)), a
    non-finite term and q = 0 take g_a itself, so N raises what g_a raises
    (DegenerateQ for q = 0, which only the real axis checks).

    For Im z > 0 both shifts keep Im a = Im z > 0, and g_a's body is inline:
    each g is checked before the next is computed."""
    h, q2 = q / 2.0, 2.0 * q
    if z.imag == 0.0:
        if q:
            x = z.real
            try:
                r = x + h
                c = (r * r - 1.0) / q2
                gp, tp = c * (_ln(abs(1.0 + r)) - _ln(abs(1.0 - r))), 0.0 if abs(r) > 1.0 else c * _MINUS_PI
                r = x - h
                c = (r * r - 1.0) / q2
                gm, tm = c * (_ln(abs(1.0 + r)) - _ln(abs(1.0 - r))), 0.0 if abs(r) > 1.0 else c * _MINUS_PI
                if _finite(gp + gm + tp + tm):  # else some term is nan or inf (or the sum overflows)
                    return complex((1.0 - gp) + gm, (0.0 - tp) + tm)
            except ValueError:  # math.log(0.0): a shift on a branch point
                pass
        return 1.0 - g_a(z, q, 1) + g_a(z, q, -1)
    a = z + h
    gp = (a * a - 1.0) / q2 * (log(a + 1.0) - log(a - 1.0))
    if not isfinite(gp):
        _require_finite(gp, "g_a")
    a = z - h
    gm = (a * a - 1.0) / q2 * (log(a + 1.0) - log(a - 1.0))
    if not isfinite(gm):
        _require_finite(gm, "g_a")
    return 1.0 - gp + gm


def _b_to_a(z: complex, q: float, what: str) -> tuple[complex, float]:
    """Map a convention-B (z, q) onto convention A: (z/|q|, |q|)."""
    q = abs(_number(q, what))
    if q == 0.0:
        raise DegenerateQ(f"{what} needs q != 0")
    return z / q, q


def g0_b(z: complex, q: float) -> complex:
    """(i Im z / (2q)) ln((z+q)/(z-q)), convention B.

    Even in q: evaluated as g0_a(z/|q|).  Real z returns exactly 0.
    """
    z_a, _ = _b_to_a(z, q, "g0_b")
    return g0_a(z_a)


def g_b(z: complex, q: float, sign: int) -> complex:
    """Convention-B sphere kernel with u = z + s q^2/2:

        ((u)^2 - q^2) / (2 q^3) * ln((u + q)/(u - q)).

    Even in q: evaluated as g_a(z/|q|, |q|, sign).  u = +-q raises
    PoleAtBranchPoint.
    """
    z_a, q_a = _b_to_a(z, q, "g_b")
    return g_a(z_a, q_a, sign)
