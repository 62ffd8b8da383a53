"""High-precision references for the tests: the closed forms in mpmath.

Each ``ref_*`` evaluates one model's closed form at ``MP_DIGITS``
significant digits, with every logarithm the analytic upper-half-plane
limit (exact on the real axis), and returns an ``mpmath.mpc``.  The
precision is set per call, so importing this module changes no global
mpmath state.  ``rel_err`` measures a float result against one of them.
"""

from __future__ import annotations

import functools

import mpmath as mp

MP_DIGITS = 40


def _at_reference_precision(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        with mp.workdps(MP_DIGITS):
            return fn(*args)

    return wrapper


def _L(a):
    """ln((a+1)/(a-1)), continuous from the upper half-plane; the real axis
    is the Im a -> 0+ limit."""
    if a.imag == 0:
        r = a.real
        if abs(r) > 1:
            return mp.mpc(mp.log(abs(r + 1)) - mp.log(abs(r - 1)), 0)
        return mp.mpc(mp.log((1 + r) / (1 - r)), -mp.pi)
    return mp.log(a + 1) - mp.log(a - 1)


def _g(z, q, s):
    a = z + s * q / 2
    return (a * a - 1) / (2 * q) * _L(a)


def _g0(z):
    return mp.mpc(0) if z.imag == 0 else mp.mpc(0, 1) * z.imag / 2 * _L(z)


def _n(z, q):
    return 1 - _g(z, q, 1) + _g(z, q, -1)


def _z(x, y):
    return mp.mpc(mp.mpf(x), mp.mpf(y))


@_at_reference_precision
def ref_bgk(x, y, q, xp):
    """BGK permittivity, convention A: 1 + (3/2) xp^2 N(z, q) / (1 - g0(z))."""
    z, q = _z(x, y), mp.mpf(q)
    return 1 + mp.mpf(1.5) * mp.mpf(xp) ** 2 * _n(z, q) / (1 - _g0(z))


@_at_reference_precision
def ref_lindhard(x, q, xp):
    """Lindhard permittivity: the BGK numerator at y = 0."""
    return 1 + mp.mpf(1.5) * mp.mpf(xp) ** 2 * _n(_z(x, 0), mp.mpf(q))


@_at_reference_precision
def ref_mermin(x, y, q, xp):
    """Mermin permittivity: 1 + (3/2) xp^2 z N / (x + i y N / N0)."""
    z, q, k = _z(x, y), mp.mpf(q), mp.mpf(1.5) * mp.mpf(xp) ** 2
    n0 = _n(_z(0, 0), q)
    if x == 0:
        return 1 + k * n0
    n = _n(z, q)
    if y == 0:
        return 1 + k * n
    return 1 + k * z * n / (mp.mpf(x) + mp.mpc(0, 1) * mp.mpf(y) * n / n0)


@_at_reference_precision
def ref_sigma(x, y, q):
    """Dimensionless longitudinal conductivity -(3i/2) x y N / (1 - g0)
    (-(3i/2) x N at y = 0)."""
    z = _z(x, y)
    ratio = _n(z, mp.mpf(q)) / (1 - _g0(z))
    scale = mp.mpf(x) if y == 0 else mp.mpf(x) * mp.mpf(y)
    return mp.mpc(0, -1.5) * scale * ratio


@_at_reference_precision
def ref_bgk_b(x, y, q, xp2):
    """Convention B, from its own kernels: u = z + s q^2/2,
    g_b = (u^2 - q^2)/(2 q^3) ln((u+q)/(u-q)), g0_b = (i Im z/(2q)) ln((z+q)/(z-q))."""
    z, q = _z(x, y), mp.mpf(q)

    def gb(s):
        u = z + s * q * q / 2
        return (u * u - q * q) / (2 * q ** 3) * _L(u / q)

    g0 = mp.mpc(0) if z.imag == 0 else mp.mpc(0, 1) * z.imag / (2 * q) * _L(z / q)
    return 1 + mp.mpf(1.5) * mp.mpf(xp2) / q ** 2 * (1 - gb(1) + gb(-1)) / (1 - g0)


@_at_reference_precision
def ref_numerator(x, y, q):
    """N(z, q) = 1 - g(z, +q) + g(z, -q), the numerator every model shares."""
    return _n(_z(x, y), mp.mpf(q))


def abs_err(got: complex, ref) -> float:
    """|got - ref| as a float, evaluated at the reference precision."""
    with mp.workdps(MP_DIGITS):
        return float(abs(mp.mpc(got) - ref))


def rel_err(got: complex, ref) -> float:
    """|got - ref| / |ref| as a float, evaluated at the reference precision."""
    with mp.workdps(MP_DIGITS):
        return float(abs(mp.mpc(got) - ref) / abs(ref))


def ref_bgk_dq(x, y, q, xp, digits=MP_DIGITS):
    """d eps/d q of ref_bgk, summed from each shifted kernel's derivative
    dg/dq = -(a^2 - 1)/(2 q^2) L(a) + s a/(2q) L(a) - s/(2q), a = z + s q/2,
    at ``digits`` significant digits: the terms cancel to ~q^3 of their
    size at small q, so give it ~3 |log10 q| digits more there."""
    with mp.workdps(digits):
        z, q = _z(x, y), mp.mpf(q)

        def dg(s):
            a = z + s * q / 2
            return -(a * a - 1) / (2 * q * q) * _L(a) + s * a / (2 * q) * _L(a) - mp.mpf(s) / (2 * q)

        return mp.mpf(1.5) * mp.mpf(xp) ** 2 * (-dg(1) + dg(-1)) / (1 - _g0(z))
