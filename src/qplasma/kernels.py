"""Branch-safe logarithmic kernels of the degenerate-plasma dielectric function.

Everything in this module reduces to one multivalued function,

    L(a) = ln((a + 1)/(a - 1)),

taken on the branch that is continuous from the upper half of the complex
a-plane.  Physically the frequency carries a positive infinitesimal
imaginary part (retarded response, exp(-i omega t) convention), so values
on the real axis mean the limit Im(a) -> 0+.  That limit is evaluated
analytically, never by substituting a small imaginary part; for r real,

    L(r) = 2 artanh(r) - i*pi              for r inside (-1, 1),
    L(r) = +-ln(1 + 2/(|r| - 1))           for |r| > 1, with the sign of r.

Each is one libm call (math.atanh, math.log1p) that loses no digit: 1 -+ r
inside and |r| - 1 outside are exact near the branch points, and the
argument of log1p is small at large |r|, where ln|1 + r| - ln|1 - r| would
cancel.  That formula is written in two places, both in this module: in _L,
the reference every public kernel evaluates, and inline in _numerator, the
row kernel of N = 1 - g(z,+q) + g(z,-q), which evaluates N over a whole row
of q in one loop for every model, the scalar ones as a row of one node.  At
a branch point r = +-1 it is math.atanh(+-1.0), whose ValueError _L raises
as PoleAtBranchPoint.  At x = 0 (omega = 0, where the static rows and
Mermin's N0 sit) the two shifts are mirror images, g(iy,-q) =
-conj(g(iy,+q)) for y >= 0, so _numerator evaluates the +q shift alone and
N is exactly real there; for y > 0 it takes that shift's real part in
floats, one log1p and one atan2 (see _numerator), with no complex log.

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

This module also holds what the light CLI commands run, on plain values:

* the input guards every module shares (_number, _square, _divisor,
  _normal);
* the model rows: the row kernel _numerator and each model's row function
  over it, which the scalar epsilon_* of qplasma.dielectric run on one node
  and wrap in their typed results, the one row evaluator _rows (which
  evaluates a row that does not depend on y once per call), the model table
  MODELS (name -> rows function, each over _rows) and branch_points_q;
* the Kohn-root arithmetic, _kohn_roots, whose tuples qplasma.kohn wraps in
  KohnRoot, and kohn_wavenumbers_physical.

It imports no dataclasses, enum or qplasma.dielectric: ``qplasma compare``
and ``qplasma kohn`` load only cli, errors and this module, and so pay
neither for importing dataclasses (which imports inspect) nor for
decorating frozen dataclasses that they would never show.
"""

from __future__ import annotations

from cmath import isfinite, log, sqrt
from functools import partial
from math import atan2, atanh, inf, isfinite as _finite, log1p, pi
from sys import float_info

from .errors import (
    DegenerateQ, DenominatorVanishes, NonFiniteResult, NonUpperHalfPlane, PoleAtBranchPoint, QplasmaError,
    StaticDenominatorVanishes,
)

__all__ = ["clog_ratio", "g0_a", "g_a", "g0_b", "g_b"]

_VALID_SIGNS = (1, -1)
_MINUS_PI = -pi  # Im L(r) for a real r inside (-1, 1)
# _numerator's float path at z = iy, w = |q|/2, runs for w and y below _SQUARE_HI, where
# w*w + y*y stays finite, and for w at or above _SQUARE_LO, where w*w is a normal double
_SQUARE_LO, _SQUARE_HI = 2.0 ** -511, 2.0 ** 511


def _non_finite(value: complex, what: str) -> NonFiniteResult:
    return NonFiniteResult(f"{what} overflowed or is undefined: {value!r}")


def _require_finite(value: complex, what: str) -> complex:
    if not isfinite(value):
        raise _non_finite(value, what)
    return value


def _beyond(what: str, error=NonFiniteResult) -> Exception:
    """The error for an int argument to ``what`` beyond double range, which float() refuses."""
    return error(f"an argument to {what} is beyond double range")


def _number(v, what: str, kind=float, error=NonFiniteResult):
    """kind(v) of a caller's value; an int beyond double range (OverflowError) raises ``error`` instead."""
    try:
        return kind(v)
    except OverflowError:
        raise _beyond(what, error) from None


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


def _normal(v: float, what: str, error=NonFiniteResult) -> float:
    """v, if it lies in the normal double range; ``error`` otherwise."""
    if not float_info.min <= v < inf:
        raise error(f"{what} = {v!r} leaves the normal double range")
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
    """L(a) for Im a >= 0, unchecked: only a branch point raises; a non-finite
    a gives nan/inf, except a = +-inf, which gives the limit +-0."""
    if a.imag == 0.0:  # the Im a -> 0+ limit: exactly -i*pi inside (-1, 1)
        x = a.real
        if -1.0 <= x <= 1.0:
            try:
                return complex(2.0 * atanh(x), _MINUS_PI)
            except ValueError:  # math.atanh(+-1.0): x is a branch point
                raise PoleAtBranchPoint(f"clog_ratio argument at branch point {x:+g}") from None
        return complex(log1p(2.0 / (x - 1.0)) if x > 1.0 else -log1p(2.0 / (-1.0 - x)), 0.0)
    # Im a > 0: a + 1 and a - 1 lie above the real axis; no unwinding needed.
    return log(a + 1.0) - log(a - 1.0)


def clog_ratio(a: complex) -> complex:
    """ln((a+1)/(a-1)) on the branch continuous from the upper half-plane;
    real a is the Im(a) -> 0+ limit.  A difference of logs off the real axis
    and one atanh or log1p on it, so arguments near a branch point cannot
    overflow the intermediate ratio."""
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


# ---------------------------------------------------------------- model rows
#
# The rows of the three models (BGK, Lindhard, Mermin; see qplasma.dielectric
# for their formulas).  Each model is one row function, row(x, y, xp, qs) ->
# (eps row, sigma row or None), which takes converted values whose signs its
# caller has checked (y, xp >= 0).  It first computes what is constant along
# the row and raises the errors that precede all q-dependent work; then it
# takes N over qs from the row kernel _numerator and applies the model's
# formula node by node, in the scalar formula's order, with no Python call
# per node on the finite path.  A node's error is held in the row, never
# raised, so a QplasmaError out of a row function is its setup's.  The scalar
# epsilon_* of qplasma.dielectric run a row of one node and raise its error
# (_one); _rows, the one row evaluator, runs one row per y.  A square of xp
# that overflows is held, not raised (_coupling): the formulas square xp
# after N, so N's errors win.

_DENOMINATOR_FLOOR = 1e-30
# The DegenerateQ text of a q = 0 node, for every model: its q -> 0 limit is
# epsilon_classical_limit (for Lindhard, at y = 0)
_Q0_POINT = "q = 0: use epsilon_classical_limit"
# Who converts a scalar call's arguments, as named in its beyond-double-range text
_POINT = "DimensionlessPointA"
_LINDHARD = "epsilon_lindhard"


def _numerator(z: complex, qs, what: str) -> list[complex | QplasmaError]:
    """N(z, q) = 1 - g(z,+q) + g(z,-q) at each q of qs, for a checked z, in
    one loop: per node its value, or the QplasmaError the scalar path raises
    there -- DegenerateQ(_Q0_POINT) at q = 0, NonFiniteResult for an int q
    beyond double range (named as ``what``, the converter of the scalar's
    arguments, names it), else the error of g_a.

    On the real axis (z.imag == 0.0) N is evaluated in floats, bit for bit
    equal to g_a.  With r = x +- q/2 and c = (r*r - 1)/(2q), each g is
    c * Re L(r), with Re L(r) written as _L writes it; a shift inside
    (-1, 1) adds c*(-pi) to Im g, one outside a zero whose sign cancels out
    of 1 - g+ + g-.  (c*(-pi) underflows to 0 only where 2q overflows, which
    leaves r = 0 as the one shift inside, and there Im g is the same signed
    zero.)  A shift on a branch point (the ValueError of math.atanh(+-1.0))
    and a non-finite term take g_a itself, 1 - g_a(z,q,+1) + g_a(z,q,-1), so
    the node holds what g_a raises.

    For Im z > 0 both shifts keep Im a = Im z > 0, and g_a's body is inline:
    each g is checked before the next is computed.

    At x = +-0 only the +q shift is evaluated; the -q shift is its mirror.
    On the real axis r- = -r+ and Re L is odd (atanh is, and -1 - r+ is
    r- - 1), so g- = -g+ with the same c*(-pi): N is the same bits as from
    both shifts.  At z = iy, y > 0, g(iy,-q) = -conj(g(iy,+q)), so
    N = (1 - Re g+) - Re g+ with Im N = +0.0: real, as the exact N is.  N is
    even in q, and Re g+ is taken in floats at w = |q|/2, a = w + iy, with
    m = w - 1 and p = m*(w + 1) = w*w - 1:

        Re c = (p - y*y)/(2|q|),   Re L = log1p(2|q|/(m*m + y*y))/2,
        Im c = y/2,                Im L = -atan2(2y, p + y*y),
        Re g = Re c * Re L - Im c * Im L,

    Im L being the argument of (a + 1)/(a - 1) = (p + y*y - 2iy)/(m*m + y*y).
    That needs one log1p, one atan2 and no complex temporary, and it is
    closer to the reference than the complex logs, which lose digits in
    ln|a + 1| - ln|a - 1|.  It runs where w lies in [2**-511, 2**511) and
    y below 2**511, so that no square overflows and w*w does not underflow;
    y*y may underflow, which matters only at w = 1, where m*m + y*y is then
    0 or subnormal and Re L not finite.  Below w = 2**-511, where a + 1
    drops w, N is its q -> 0 limit 2 - z L(z) = 2 - 2y atan2(1, y).  A node
    with w or y at or above 2**511, or a Re g that is not finite, takes the
    complex path below (g_a's body at +q, mirrored), so it holds g_a's
    value there, or g_a's error."""
    out: list[complex | QplasmaError] = []
    x, y = z.real, z.imag
    real, mirror = y == 0.0, x == 0.0
    imaginary = mirror and 0.0 < y < _SQUARE_HI  # z = +-0 + iy, y*y finite: the float path below
    if imaginary:
        yy, y2, hy = y * y, 2.0 * y, 0.5 * y
    for q in qs:
        if q == 0.0:
            out.append(DegenerateQ(_Q0_POINT))
            continue
        try:
            h, q2 = q / 2.0, 2.0 * q
        except OverflowError:  # an int q beyond double range, which the scalar's converter rejects
            out.append(_beyond(what))
            continue
        if real:
            try:
                r = x + h
                c = (r * r - 1.0) / q2
                if -1.0 <= r <= 1.0:
                    gp, tp = c * (2.0 * atanh(r)), c * _MINUS_PI
                else:
                    gp, tp = c * (log1p(2.0 / (r - 1.0)) if r > 1.0 else -log1p(2.0 / (-1.0 - r))), 0.0
                if mirror:  # the -q shift's Re L is this one's, negated; its c the same square
                    gm, tm = -gp, tp
                else:
                    r = x - h
                    c = (r * r - 1.0) / q2
                    if -1.0 <= r <= 1.0:
                        gm, tm = c * (2.0 * atanh(r)), c * _MINUS_PI
                    else:
                        gm, tm = c * (log1p(2.0 / (r - 1.0)) if r > 1.0 else -log1p(2.0 / (-1.0 - r))), 0.0
                if _finite(gp + gm + tp + tm):  # else some term is nan or inf (or the sum overflows)
                    out.append(complex((1.0 - gp) + gm, (0.0 - tp) + tm))
                    continue
            except ValueError:  # math.atanh(+-1.0): a shift on a branch point
                pass
            try:
                out.append(1.0 - g_a(z, q, 1) + g_a(z, q, -1))
            except QplasmaError as exc:
                out.append(exc)
            continue
        if imaginary:
            w = abs(h)  # N is even in q
            if w < _SQUARE_LO:  # the q -> 0 limit, whose O(q*q) rest is below 2**-1020
                out.append(complex(2.0 - y2 * atan2(1.0, y), 0.0))
                continue
            if w < _SQUARE_HI:
                m, q4 = w - 1.0, abs(q2)
                p = m * (w + 1.0)
                try:
                    rg = (p - yy) / q4 * (0.5 * log1p(q4 / (m * m + yy))) + hy * atan2(y2, p + yy)
                except ZeroDivisionError:  # m*m + y*y is 0: w = 1, with y*y underflowed
                    rg = inf
                if _finite(rg):
                    out.append(complex((1.0 - rg) - rg, 0.0))
                    continue
        a = z + h
        gp = (a * a - 1.0) / q2 * (log(a + 1.0) - log(a - 1.0))
        if not isfinite(gp):
            out.append(_non_finite(gp, "g_a"))
        elif mirror:  # g(iy,-q) = -conj(g(iy,+q)): N = 1 - 2 Re g(iy,+q), exactly real
            out.append(complex((1.0 - gp.real) - gp.real, 0.0))
        else:
            a = z - h
            gm = (a * a - 1.0) / q2 * (log(a + 1.0) - log(a - 1.0))
            out.append(1.0 - gp + gm if isfinite(gm) else _non_finite(gm, "g_a"))
    return out


def _one(row: list):
    """The value of a one-node row, or raise the node's error: the scalar path."""
    (v,) = row
    if type(v) is not complex:
        raise v
    return v


def _nonnegative(name: str, v: float) -> None:
    if v < 0.0:
        raise ValueError(f"{name} must be >= 0, got {v}")


def _bgk_denominator(z: complex) -> complex:
    """1 - g0(z), the BGK denominator; raises DenominatorVanishes near 0."""
    den = 1.0 - g0_a(z)
    if abs(den) < _DENOMINATOR_FLOOR:
        raise DenominatorVanishes(f"|1 - g0({z!r})| < {_DENOMINATOR_FLOOR}")
    return den


def _sigma(x: float, y: float) -> complex:
    """The factor that turns the kernel ratio into the dimensionless
    conductivity: -(3i/2) x y (sigma_l/sigma_0) for y > 0, and the
    collisionless normalisation -(3i/2) x at y = 0."""
    return -1.5j * (x if y == 0.0 else x * y)


def _static_vanished(q) -> StaticDenominatorVanishes:
    return StaticDenominatorVanishes(f"static combination vanished at q={q}")


def _coupling(xp: float) -> float | NonFiniteResult:
    """1.5 xp^2, a float, or, if it overflows, the error a node holds where
    the scalar formula squares xp (after N's errors)."""
    try:
        return 1.5 * xp ** 2
    except OverflowError:
        try:
            _square(xp, "xp")  # raises, as xp ** 2 overflows
        except NonFiniteResult as exc:
            return exc


def _bgk_row(x: float, y: float, xp: float, qs) -> tuple[list, list]:
    z = complex(x, y)
    den, c, s = _bgk_denominator(z), _coupling(xp), _sigma(x, y)
    eps_row, sigma_row, ok = [], [], type(c) is float
    for n in _numerator(z, qs, _POINT):
        if type(n) is not complex or not ok:  # N's error, else the coupling's
            eps = sigma = n if type(n) is not complex else c
        else:
            ratio = n / den
            eps, sigma = 1.0 + c * ratio, s * ratio
            if not isfinite(eps):
                eps = sigma = _non_finite(eps, "epsilon_collisional_a")
            elif not isfinite(sigma):
                eps = sigma = _non_finite(sigma, "sigma")
        eps_row.append(eps)
        sigma_row.append(sigma)
    return eps_row, sigma_row


def _lindhard_form(z: complex, xp: float, s: complex | None, what: str, conv: str, qs) -> tuple[list, list]:
    """eps = 1 + (3/2) xp^2 N(z, q) over qs, with sigma = s N unless s is
    None.  ``what`` names the model in a non-finite eps's text, ``conv`` the
    converter of the scalar's arguments in an int q's text."""
    c = _coupling(xp)
    eps_row, sigma_row, ok = [], [], type(c) is float
    for n in _numerator(z, qs, conv):
        if type(n) is not complex or not ok:  # N's error, else the coupling's
            eps = sigma = n if type(n) is not complex else c
        else:
            eps = 1.0 + c * n
            if isfinite(eps):
                sigma = None if s is None else s * n
            else:
                eps = sigma = _non_finite(eps, what)
        eps_row.append(eps)
        sigma_row.append(sigma)
    return eps_row, sigma_row


def _lindhard_row(x: float, y: float, xp: float, qs) -> tuple[list, list]:
    """y is ignored; z = x is checked as g_a checks it, after q = 0."""
    return _lindhard_form(_as_upper_half(complex(x, 0.0), "g_a"), xp, _sigma(x, 0.0), _LINDHARD, _LINDHARD, qs)


def _mermin_row(x: float, y: float, xp: float, qs, n0s: list) -> tuple[list, list | None]:
    """x = 0 is the static route, independent of y, which squares xp before
    N0; y = 0 is the Lindhard form; otherwise the full form.  The last two
    check z as g_a does.  The full form fills n0s, if empty, with the N0(q)
    row of qs and reads it from there, so that the rows of one call share
    one N0 row; at each node N's error comes first, then N0's."""
    if x == 0.0:
        c = 1.5 * _square(xp, "xp")
        out = _numerator(0.0j, qs, _POINT)
        for i, (q, n0) in enumerate(zip(qs, out)):
            if type(n0) is not complex:
                continue
            if abs(n0) < _DENOMINATOR_FLOOR:
                out[i] = _static_vanished(q)
            else:
                eps = 1.0 + c * n0
                out[i] = eps if isfinite(eps) else _non_finite(eps, "epsilon_mermin")
        return out, None
    z = _as_upper_half(complex(x, y), "g_a")
    if y == 0.0:
        return _lindhard_form(z, xp, None, "epsilon_mermin", _POINT, qs)
    iy, c = 1j * y, _coupling(xp)
    ok = type(c) is float
    if not n0s:
        n0s.extend(_numerator(0.0j, qs, _POINT))
    out = []
    for q, n, n0 in zip(qs, _numerator(z, qs, _POINT), n0s):
        if type(n) is not complex or type(n0) is not complex:  # N's error, else N0's
            out.append(n if type(n) is not complex else n0)
        elif abs(n0) < _DENOMINATOR_FLOOR:
            out.append(_static_vanished(q))
        else:
            den = x + iy * n / n0
            if abs(den) < _DENOMINATOR_FLOOR:
                out.append(DenominatorVanishes(
                    f"Mermin denominator vanished at x={x!r}, y={y!r}, q={float(q)!r}, xp={xp!r}"))
            elif not ok:
                out.append(c)
            else:
                eps = 1.0 + c * (z * n) / den
                out.append(eps if isfinite(eps) else _non_finite(eps, "epsilon_mermin"))
    return out, None


def _failed_row(exc: QplasmaError, qs, what: str) -> list[QplasmaError]:
    """The row of a row whose conversion or setup raised exc.  At each node
    the scalar checks q = 0 and converts q first, so those errors come first."""
    out: list[QplasmaError] = []
    for q in qs:
        if q == 0.0:
            out.append(DegenerateQ(_Q0_POINT))
            continue
        try:
            float(q)
        except OverflowError:
            out.append(_beyond(what))
            continue
        out.append(exc)
    return out


def _rows(row, what: str, static: bool, x: float, ys, qs, xp: float) -> list[list[complex | QplasmaError]]:
    """eps over qs at fixed x and xp, one row per y of ys, each node as the
    scalar path gives it: its value, or the QplasmaError it raises --
    DegenerateQ(_Q0_POINT) at q = 0, else NonFiniteResult for an int argument
    beyond double range (named as the scalar ``what`` names it, which
    converts every argument first), else an error of the setup, else the
    node's own.  y < 0 or xp < 0 raises ValueError, checked on the value as
    given, as a point checks it, before x, y and xp are converted.  A static
    row, which does not depend on y, is evaluated for the first y whose
    arguments convert and copied to each later y that converts."""
    rows: list[list[complex | QplasmaError]] = []
    shared = None
    for y in ys:
        _nonnegative("y", y)
        _nonnegative("xp", xp)
        args = None
        try:
            args = _number(x, what), _number(y, what), _number(xp, what)
            if shared is not None:
                rows.append(shared.copy())
                continue
            out = row(*args, qs)[0]
        except QplasmaError as exc:  # the row's conversion or setup raised it
            out = _failed_row(exc, qs, what)
        rows.append(out)
        if static and args is not None:
            shared = out
    return rows


# Model name -> rows(x, ys, qs, xp), for the sweep, the broadening scan and the CLI:
# one row per y of ys, each node the eps of the scalar epsilon_* at (x, y, q, xp)
# or the QplasmaError raised there; y or xp < 0 raises ValueError.  The Mermin
# row at x = 0 is static, and its other rows share one N0(q) row; every Lindhard
# row is static too, and is passed y = 0.0 for each y, as epsilon_lindhard takes
# no y to check or convert.
MODELS = {
    "bgk": partial(_rows, _bgk_row, _POINT, False),
    "mermin": lambda x, ys, qs, xp: _rows(partial(_mermin_row, n0s=[]), _POINT, x == 0.0, x, ys, qs, xp),
    "lindhard": lambda x, ys, qs, xp: _rows(_lindhard_row, _LINDHARD, True, x, (0.0 for _ in ys), qs, xp),
}


def branch_points_q(x: float) -> tuple[float, ...]:
    """Wavenumbers q where the y = 0 kernels hit their log branch points at
    fixed x (shifted argument x +- q/2 = +-1): +-2(1-x), +-2(1+x).  A
    non-finite x, or |x| so large that 2(1 +- x) overflows, raises
    NonFiniteResult, and so does an int x beyond double range."""
    x = _number(x, "branch_points_q")
    qs = (2.0 * (1.0 - x), 2.0 * (1.0 + x), -2.0 * (1.0 - x), -2.0 * (1.0 + x))
    if not (_finite(qs[0]) and _finite(qs[1])):
        raise NonFiniteResult(f"the branch points at x={x!r} overflow or are undefined")
    return qs


# ---------------------------------------------------------------- Kohn roots
#
# The arithmetic of qplasma.kohn (see its docstring for the four loci and the
# root selection), on plain tuples.  A root is the tuple of KohnRoot's fields:
# (q, q_alt, branch, degenerate, physical, principal, residual).


def _kohn_roots(x: float) -> tuple[float, tuple[tuple, tuple, tuple, tuple]]:
    """(x as a float, the four Kohn roots at x) for kohn_roots_dimless; a
    non-finite x, or |x| so large that 1 +- 2x overflows, raises
    NonFiniteResult."""
    x = _number(x, "kohn_roots_dimless")
    if not _finite(x):
        raise NonFiniteResult(f"kohn_roots_dimless needs a finite x, got {x!r}")
    sp = sqrt(complex(1.0 + 2.0 * x, 0.0))
    sm = sqrt(complex(1.0 - 2.0 * x, 0.0))
    if not (isfinite(sp) and isfinite(sm)):
        raise NonFiniteResult(f"the Kohn roots at x={x!r} overflow")

    # Each branch (s1, s2): its selected root, the other root and the residual
    # q*q + 2*s1*q + 2*s2*x, with the sign pair written as the constants +-2.0.
    q1, a1 = 1.0 + sp, 1.0 - sp
    q2, a2, principal2 = 1.0 + sm, 1.0 - sm, True
    q3, a3 = -1.0 - sp, -1.0 + sp
    q4, a4 = -1.0 - sm, -1.0 + sm
    if x == 0.0:
        # The (-,+) principal root duplicates the (-,-) one; surface the
        # degenerate q = 0 root of that equation instead.
        q2, a2, principal2 = a2, q2, False
    # A root is degenerate where it is 0 or equals another root: q1 == q2, q3 == q4 or q2 == 0, as
    # roots of opposite sign differ (Re q1, Re q2 >= 1 > -1 >= Re q3, Re q4, but q2 = 0 at x = 0).
    d12, d34 = q1 == q2, q3 == q4
    return x, (
        (q1, a1, (-1, -1), d12, q1.imag == 0.0 and q1.real > 0.0, True, abs(q1 * q1 + -2.0 * q1 + -2.0 * x)),
        (q2, a2, (-1, +1), d12 or q2 == 0.0, q2.imag == 0.0 and q2.real > 0.0, principal2,
         abs(q2 * q2 + -2.0 * q2 + 2.0 * x)),
        (q3, a3, (+1, -1), d34, q3.imag == 0.0 and q3.real > 0.0, True, abs(q3 * q3 + 2.0 * q3 + -2.0 * x)),
        (q4, a4, (+1, +1), d34, q4.imag == 0.0 and q4.real > 0.0, True, abs(q4 * q4 + 2.0 * q4 + 2.0 * x)),
    )


def _branch_label(branch: tuple[int, int]) -> str:
    """A root's sign pair (s1, s2) as printed, e.g. "(-,+)"."""
    s1, s2 = branch
    return f"({'+' if s1 > 0 else '-'},{'+' if s2 > 0 else '-'})"


def kohn_wavenumbers_physical(omega: float, kF: float, vF: float) -> tuple[complex, complex, complex, complex]:
    """Dimensional singular wavenumbers (1/length):

        k_{1,2} = k_F + sqrt(k_F^2 +- 2 k_F omega / v_F)
        k_{3,4} = -k_F - sqrt(k_F^2 +- 2 k_F omega / v_F)

    These are k_F times the principal roots of kohn_roots_dimless at
    x = omega/(k_F v_F); at x = 0, where the (-,+) entry reports the
    degenerate root 0, its principal root 2 is used, giving 2k_F, 2k_F,
    -2k_F, -2k_F.  Negative discriminants give complex values; a scale
    k_F*v_F that is not a normal double (x would be rounded to 0 or lose
    digits) and a wavenumber that overflows raise NonFiniteResult.
    """
    if not (0.0 < kF < inf and 0.0 < vF < inf):
        raise ValueError("kF and vF must be positive and finite")
    omega, kF, vF = (_number(v, "kohn_wavenumbers_physical") for v in (omega, kF, vF))
    _, roots = _kohn_roots(omega / _normal(kF * vF, "kF*vF"))
    ks = tuple(kF * (q if principal else q_alt) for q, q_alt, _, _, _, principal, _ in roots)
    if not all(isfinite(k) for k in ks):
        raise NonFiniteResult(f"kF * q overflows: {ks!r}")
    return ks
