"""Kohn singularities of the dielectric function.

At y = 0 the logarithms in the dielectric kernels hit their branch points
on the four loci

    q^2 + 2*s1*q + 2*s2*x = 0,        s1, s2 = +-1,

whose roots split around q = +-2 for small nonzero x.  Each quadratic has
two algebraic roots; the principal selection keeps

    q1 = 1 + sqrt(1 + 2x)      on (-,-)
    q2 = 1 + sqrt(1 - 2x)      on (-,+)
    q3 = -1 - sqrt(1 + 2x)     on (+,-)
    q4 = -1 - sqrt(1 - 2x)     on (+,+)

so that q1,2 ~ 2 +- x and q3,4 ~ -2 -+ x (the singularities proper).
Both algebraic roots of every branch are reported (fields ``q`` and
``q_alt``) so the 1 -+ sqrt ambiguity stays visible.  At exactly x = 0 the (-,+) selection would duplicate the
(-,-) root 2, hiding the degenerate singular point at q = 0; that entry
therefore reports the equation's other root 0, flagged degenerate, giving
the root multiset {2, 0, -2, -2}.

Negative discriminants (|x| > 1/2 on one locus) give complex roots, which
are returned as data flagged non-physical, never as errors.

The arithmetic lives in :mod:`qplasma.kernels` on plain tuples, which
``qplasma kohn`` prints without building a dataclass;
``kohn_roots_dimless`` wraps them in the frozen KohnRoot and KohnRootSet, and
``kohn_wavenumbers_physical`` is defined there and re-bound here.  The
broadening scan and the closed-form slope d eps/d q it searches live here,
as the CLI commands that load kernels never run them.  The scan's y = 0
rows take the sweep's q grid and pole rule from :mod:`qplasma.sweep`, with
the grid's one precondition: a y = 0 row whose step is not a normal double
raises NonFiniteResult.
"""

from __future__ import annotations

import math
import numbers
from cmath import log
from dataclasses import dataclass
from math import fsum

from .errors import NonFiniteResult, QplasmaError, WindowContainsPole
from .kernels import (  # kohn_wavenumbers_physical is re-bound here
    MODELS, _bgk_denominator, _branch_label, _coupling, _kohn_roots, _nonnegative, _normal, _number, branch_points_q,
    kohn_wavenumbers_physical,
)

__all__ = [
    "KohnRoot",
    "KohnRootSet",
    "BroadeningRow",
    "kohn_roots_dimless",
    "kohn_wavenumbers_physical",
    "singularity_broadening_scan",
]

@dataclass(frozen=True)
class KohnRoot:
    """One singular wavenumber with its defining sign pair.

    ``branch`` is (s1, s2) in q^2 + 2*s1*q + 2*s2*x = 0; ``q_alt`` is the
    quadratic's other algebraic root; ``principal`` records whether ``q``
    follows the 1 +- sqrt selection that splits around q = +-2.
    """

    q: complex
    q_alt: complex
    branch: tuple[int, int]
    degenerate: bool
    physical: bool
    principal: bool
    residual: float

    def __init__(self, q: complex, q_alt: complex, branch: tuple[int, int], degenerate: bool, physical: bool,
                 principal: bool, residual: float) -> None:
        # The generated frozen __init__ stores each field through
        # object.__setattr__; a store into the instance dict costs a fraction.
        d = self.__dict__
        d["q"], d["q_alt"], d["branch"], d["degenerate"] = q, q_alt, branch, degenerate
        d["physical"], d["principal"], d["residual"] = physical, principal, residual

    @property
    def branch_label(self) -> str:
        return _branch_label(self.branch)


@dataclass(frozen=True)
class KohnRootSet:
    """The four singular wavenumbers of a fixed dimensionless frequency x."""

    x: float
    roots: tuple[KohnRoot, KohnRoot, KohnRoot, KohnRoot]

    def __init__(self, x: float, roots: tuple[KohnRoot, KohnRoot, KohnRoot, KohnRoot]) -> None:
        d = self.__dict__  # as KohnRoot.__init__: cheaper than object.__setattr__ per field
        d["x"], d["roots"] = x, roots

    def physical_roots(self) -> tuple[complex, ...]:
        return tuple(r.q for r in self.roots if r.physical)


def kohn_roots_dimless(x: float) -> KohnRootSet:
    """All four Kohn singularities of eps(q) at fixed x = omega/(k_F v_F);
    a non-finite x, or |x| so large that 1 +- 2x overflows, raises
    NonFiniteResult."""
    x, (r1, r2, r3, r4) = _kohn_roots(x)
    return KohnRootSet(x, (KohnRoot(*r1), KohnRoot(*r2), KohnRoot(*r3), KohnRoot(*r4)))


@dataclass(frozen=True)
class BroadeningRow:
    """Scan result for one collision frequency: the kink-steepness proxy
    max |d eps/d q| and, at y = 0, any grid nodes skipped as exact branch
    points."""

    y: float
    max_abs_deps_dq: float
    skipped_q: tuple[float, ...]


_GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0  # where a golden-section search puts its inner points
# 1/19, 1/17, ..., 1/3: the coefficients of (atanh(t) - t)/t^3 in t^2, by Horner from the top;
# at |t| <= 1/8 the first left out, t^18/21, is below 2e-18 of the sum
_ATANH = tuple(1.0 / d for d in range(19, 1, -2))


def _dn_dq(z: complex, q: float) -> complex:
    """dN/dq of N(z, q) = 1 - g(z,+q) + g(z,-q), for Im z > 0 and q != 0.

    With a = z + s q/2 and L'(a) = -2/(a^2 - 1), each shifted kernel has

        dg/dq = s a/(2q) L(a) - (a^2 - 1)/(2q^2) L(a) - s/(2q),

    and as a+ a- = a+^2 - q a+ = a-^2 + q a-, their sum -dg+/dq + dg-/dq is

        dN/dq = (p (L(a+) - L(a-)) + 2q) / (2q^2),   p = a+ a- - 1 = (z - 1)(z + 1) - q^2/4.

    Its two terms cancel where t = q/p is small (small q or large |z|), so
    for |t| <= 1/8 it is taken from L(a+) - L(a-) = ln((p - q)/(p + q))
    = -2 atanh(t) (no branch crossing there, as -pi < Im L < 0) as

        dN/dq = -(q/p^2) (1/3 + t^2/5 + t^4/7 + ...),

    nine terms.  Otherwise L(a) = log(a + 1) - log(a - 1), with Re(a +- 1)
    = x +- 1 + s q/2 rounded once (math.fsum): near a branch point it is
    the small difference of these three terms, and the slope, unlike N, is
    not damped there by a factor a^2 - 1.  The direct form divides by q
    twice, so a tiny q gives inf, not a ZeroDivisionError from an
    underflowed q^2."""
    x, y, h = z.real, z.imag, 0.5 * q
    p = (z - 1.0) * (z + 1.0) - h * h
    t = q / p
    if abs(t) <= 0.125:
        t2, s = t * t, 0.0
        for coefficient in _ATANH:
            s = s * t2 + coefficient
        return -(t / p) * s
    # the logs of a+ + 1, a+ - 1, a- + 1 and a- - 1
    lpp, lpm, lmp, lmm = (log(complex(fsum((x, one, shift)), y)) for shift in (h, -h) for one in (1.0, -1.0))
    return (p * (lpp - lpm - lmp + lmm) + 2.0 * q) / (2.0 * q) / q


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """The largest value of f at the points of a golden-section search for a
    maximum of f in [a, b], narrowed until the bracket is at most tol wide."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return max(fc, fd)


def _max_slope(x: float, y: float, xp: float, lo: float, hi: float) -> float:
    """max |d eps/d q| of the BGK eps = 1 + 1.5 xp^2 N/(1 - g0) over
    lo <= q <= hi, for y > 0, from the closed-form dN/dq.

    |d eps/d q| is sampled at lo, hi, 32 uniform intervals and, around each
    branch point b of branch_points_q(x), where it peaks with a width
    of order y, at b + k y/2 for |k| <= 8, inside the window; each sampled
    local maximum is refined by golden section until its bracket is at
    most max(1e-5 y, 4 ulp(q)) wide.  q = 0 is never evaluated: dN/dq is odd
    in q (N is even), so it is 0 there.  A vanishing 1 - g0 raises
    DenominatorVanishes; a 1.5 xp^2, branch point or slope that overflows
    or is undefined raises NonFiniteResult."""
    z = complex(x, y)
    den = _bgk_denominator(z)
    c = _coupling(xp)
    if type(c) is not float:
        raise c
    c /= den

    def slope(q: float) -> float:
        if q == 0.0:
            return 0.0
        s = abs(c * _dn_dq(z, q))
        if not math.isfinite(s):
            raise NonFiniteResult(f"|d eps/d q| at x={x!r}, y={y!r}, q={q!r}, xp={xp!r} overflowed or is undefined")
        return s

    step = (hi - lo) / 32.0
    qs = {lo, hi, *[lo + i * step for i in range(1, 32)]}
    for b in set(branch_points_q(x)):
        qs.update([b + k * (0.5 * y) for k in range(-8, 9)])
    qs = sorted(q for q in qs if lo <= q <= hi)  # drops the inf of an overflow too
    fs = [slope(q) for q in qs]
    best, last = max(fs), len(qs) - 1
    for i, f in enumerate(fs):
        if (i == 0 or fs[i - 1] < f) and (i == last or f >= fs[i + 1]):
            a, b = qs[max(i - 1, 0)], qs[min(i + 1, last)]
            best = max(best, _golden_max(slope, a, b, max(1e-5 * y, 4.0 * math.ulp(max(abs(a), abs(b))))))
    return best


def singularity_broadening_scan(
    x: float,
    xp: float,
    y_list,
    q_window: tuple[float, float],
    n_points: int = 2001,
) -> list[BroadeningRow]:
    """Quantify how collisions smooth the Kohn kink.

    For each y the maximum of |d eps/d q| of the BGK permittivity over
    ``q_window`` is recorded.  A decreasing maximum with increasing y is the
    broadening signature.

    For y > 0 eps is smooth in q, and the maximum is searched on the
    closed-form derivative (``_max_slope``), to about 1e-13 relative on the
    shipped figure windows; it does not depend on ``n_points``, and
    ``skipped_q`` is ().  Such a row raises instead of returning a value
    when 1 - g0 vanishes (DenominatorVanishes) and when 1.5 xp^2 or the
    derivative overflows or is undefined (NonFiniteResult).

    For y = 0 the true slope diverges at a Kohn point, so the row reports a
    grid value: the maximum central finite difference of the BGK row on a
    uniform grid of ``n_points`` (default 2001) over ``q_window``, which is
    all that ``n_points`` governs.  Grid nodes within 1e-9 of a branch point
    are excluded from the derivative and reported in ``skipped_q``, and so
    are nodes whose evaluation raises a QplasmaError.  Skipped points are
    never interpolated; a maximum that overflows raises NonFiniteResult.
    Before the row is evaluated, NonFiniteResult is raised for a grid step
    (q_max - q_min)/(n_points - 1) that is not a normal double (a span that
    overflows, a step that is 0 or subnormal) and for a first step q1 - q0
    that rounds to 0 (a window narrower than n_points - 1 steps of its own
    ulp), and after it for branch points that overflow.  A row left with no
    central difference (no inner node with both neighbours evaluated)
    raises the first QplasmaError of its nodes, or WindowContainsPole if
    its only gaps are branch-point nodes.

    A non-finite x, xp, y or window edge, or an ``n_points`` that is not an
    integer >= 3, raises ValueError before anything is evaluated, and so
    does a negative y or xp when its row is reached; an int argument beyond
    double range raises NonFiniteResult.
    """
    from .sweep import _linspace, _pole_nodes

    if not isinstance(n_points, numbers.Integral) or n_points < 3:
        raise ValueError(f"n_points must be an integer >= 3, got {n_points!r}")
    what = "singularity_broadening_scan"
    _number(n_points, what)  # a count beyond double range cannot space the grid
    q_lo, q_hi = _number(q_window[0], what), _number(q_window[1], what)
    if not q_hi > q_lo:
        raise ValueError("q_window must satisfy q_min < q_max")
    ys = [_number(y, what) for y in y_list]
    x, xp_f = _number(x, what), _number(xp, what)
    if not all(math.isfinite(v) for v in (x, xp_f, q_lo, q_hi, *ys)):
        raise ValueError("x, xp, y and q_window must be finite")

    qs = None  # the grid of the y = 0 rows, built by the first of them
    rows = []
    for y in ys:
        if y != 0.0:
            _nonnegative("y", y)
            _nonnegative("xp", xp)
            rows.append(BroadeningRow(y=y, max_abs_deps_dq=_max_slope(x, y, xp_f, q_lo, q_hi), skipped_q=()))
            continue
        if qs is None:
            _normal((q_hi - q_lo) / (n_points - 1), f"the grid step (q_max - q_min)/(n_points - 1) of {(q_lo, q_hi)!r}")
            qs = _linspace(q_lo, q_hi, int(n_points))
            h2 = 2.0 * (qs[1] - qs[0])
        if h2 == 0.0:  # the window is too narrow for n_points distinct nodes
            raise NonFiniteResult(f"the grid step of q_window {(q_lo, q_hi)!r} at n_points={n_points!r} is 0")
        row = MODELS["bgk"](x, (y,), qs, xp)[0]
        pole_nodes = _pole_nodes(qs, branch_points_q(x))
        for i in pole_nodes:
            row[i] = None
        # the central difference at each inner node whose two neighbours were evaluated
        slopes = [abs(hi - lo) / h2 for lo, hi in zip(row, row[2:])
                  if isinstance(lo, complex) and isinstance(hi, complex)]
        if not slopes:  # raise the first node's error, or that every gap sits on a pole
            raise next((v for v in row if isinstance(v, QplasmaError)), None) or WindowContainsPole(
                f"no central difference at y=0: the grid node q={qs[pole_nodes[0]]} "
                "and each other gap sits on a branch point")
        max_slope = max(0.0, *slopes)  # as a loop from 0.0: a nan slope never replaces the maximum
        if max_slope == math.inf:
            raise NonFiniteResult(f"the maximum |d eps/d q| at y={y!r} overflows")
        skipped = tuple(q for q, v in zip(qs, row) if not isinstance(v, complex))  # a pole node or a QplasmaError
        rows.append(BroadeningRow(y=y, max_abs_deps_dq=max_slope, skipped_q=skipped))
    return rows
