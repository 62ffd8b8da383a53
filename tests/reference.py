"""High-precision references for the tests: the closed forms in mpmath.

Each ``ref_*`` takes (x, y, ...), evaluates one closed form, with every
logarithm the analytic upper-half-plane limit (exact on the real axis), and
returns an ``mpmath.mpc``.  The precision adapts to the arguments, as the
closed forms cancel at small and at large ones: a call starts at

    MP_DIGITS + 2 max(0, -log10 min |arg|) + 4 log10 max(1, max |arg|)

significant digits, the minimum over the nonzero arguments but y (no closed
form cancels as y -> 0), the maximum over all of them (large y cancels),
and doubles the precision until two evaluations agree to 1e-25 relative.
It is set per call, so importing this module changes no global mpmath
state.  ``rel_err`` measures a float result against one of them.
"""

from __future__ import annotations

import functools

import mpmath as mp

MP_DIGITS = 40
_AGREE = mp.mpf("1e-25")
_MAX_DIGITS = 40000  # far beyond what any double argument needs; a call that gets there raises


def _start_digits(args) -> int:
    sizes = [abs(mp.mpf(a)) for a in args]
    smallest = min((size for i, size in enumerate(sizes) if size and i != 1), default=1)  # args[1] is y
    return MP_DIGITS + int(2 * max(0, -mp.log10(smallest)) + 4 * mp.log10(max(1, *sizes)))


def _at_reference_precision(fn):
    """fn(*args) at the adaptive precision of the module docstring."""
    @functools.wraps(fn)
    def wrapper(*args):
        digits = _start_digits(args)
        with mp.workdps(digits):
            value = fn(*args)
        while digits < _MAX_DIGITS:
            digits *= 2
            with mp.workdps(digits):
                new = fn(*args)
                if abs(new - value) <= _AGREE * abs(new):
                    return new
            value = new
        raise ArithmeticError(f"{fn.__name__}{args}: no two evaluations agree to 1e-25 up to {digits} digits")

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
    g_b = (u^2 - q^2)/(2 q^3) ln((u+q)/(u-q)), g0_b = (i Im z/(2q)) ln((z+q)/(z-q)),
    at |q|: eps depends on |k|, and u/q at a signed q would take the real
    axis limit of the log from below."""
    z, q = _z(x, y), abs(mp.mpf(q))

    def gb(s):
        u = z + s * q * q / 2
        return (u * u - q * q) / (2 * q ** 3) * _L(u / q)

    g0 = mp.mpc(0) if z.imag == 0 else mp.mpc(0, 1) * z.imag / (2 * q) * _L(z / q)
    return 1 + mp.mpf(1.5) * mp.mpf(xp2) / q ** 2 * (1 - gb(1) + gb(-1)) / (1 - g0)


@_at_reference_precision
def ref_clog_ratio(x, y):
    """L(x + iy) = ln((a+1)/(a-1)), the logarithm every kernel takes."""
    return _L(_z(x, y))


@_at_reference_precision
def ref_numerator(x, y, q):
    """N(z, q) = 1 - g(z, +q) + g(z, -q), the numerator every model shares."""
    return _n(_z(x, y), mp.mpf(q))


@_at_reference_precision
def ref_g(x, y, q, s):
    """The shifted kernel g(z, q, s) = ((z + s q/2)^2 - 1)/(2q) L(z + s q/2), s = +-1."""
    return _g(_z(x, y), mp.mpf(q), s)


def abs_err(got: complex, ref) -> float:
    """|got - ref| as a float, evaluated at the reference precision."""
    with mp.workdps(MP_DIGITS):
        return float(abs(mp.mpc(got) - ref))


def rel_err(got: complex, ref) -> float:
    """|got - ref| / |ref| as a float, evaluated at the reference precision."""
    with mp.workdps(MP_DIGITS):
        return float(abs(mp.mpc(got) - ref) / abs(ref))


@_at_reference_precision
def ref_bgk_dq(x, y, q, xp):
    """d eps/d q of ref_bgk, summed from each shifted kernel's derivative
    dg/dq = -(a^2 - 1)/(2 q^2) L(a) + s a/(2q) L(a) - s/(2q), a = z + s q/2;
    the terms cancel to ~q^3 of their size at small q."""
    z, q = _z(x, y), mp.mpf(q)

    def dg(s):
        a = z + s * q / 2
        return -(a * a - 1) / (2 * q * q) * _L(a) + s * a / (2 * q) * _L(a) - mp.mpf(s) / (2 * q)

    return mp.mpf(1.5) * mp.mpf(xp) ** 2 * (-dg(1) + dg(-1)) / (1 - _g0(z))
