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
``kohn_wavenumbers_physical`` is defined there and re-bound here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import NonFiniteResult, WindowContainsPole
from .kernels import (  # kohn_wavenumbers_physical is re-bound here
    MODELS, _branch_label, _kohn_roots, _number, branch_points_q, kohn_wavenumbers_physical,
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
    max |d eps/d q| and any grid nodes skipped as exact branch points."""

    y: float
    max_abs_deps_dq: float
    skipped_q: tuple[float, ...]


def singularity_broadening_scan(
    x: float,
    xp: float,
    y_list,
    q_window: tuple[float, float],
    n_points: int = 2001,
    on_pole: str = "skip",
) -> list[BroadeningRow]:
    """Quantify how collisions smooth the Kohn kink.

    For each y the BGK permittivity is evaluated on a uniform grid of
    ``n_points`` (default 2001) over ``q_window`` and the maximum central
    finite-difference |d eps/d q| is recorded.  A decreasing maximum with
    increasing y is the broadening signature.

    For y = 0, grid nodes within 1e-9 of a branch point are excluded from
    the derivative and reported in ``skipped_q`` (``on_pole="skip"``, the
    default) or raise WindowContainsPole (``on_pole="raise"``).  Nodes whose
    evaluation raises a QplasmaError are excluded and reported the same
    way.  Skipped points are never interpolated.  A non-finite x, xp, y or
    window edge, or an ``n_points`` that is not an integer >= 3, raises
    ValueError before anything is evaluated; a maximum slope that overflows
    raises NonFiniteResult, as does an int argument beyond double range.
    """
    from .sweep import _linspace, _pole_nodes

    if on_pole not in ("skip", "raise"):
        raise ValueError(f"on_pole must be 'skip' or 'raise', got {on_pole!r}")
    if not isinstance(n_points, numbers.Integral) or n_points < 3:
        raise ValueError(f"n_points must be an integer >= 3, got {n_points!r}")
    what = "singularity_broadening_scan"
    _number(n_points, what)  # a count beyond double range cannot space the grid
    q_lo, q_hi = _number(q_window[0], what), _number(q_window[1], what)
    if not q_hi > q_lo:
        raise ValueError("q_window must satisfy q_min < q_max")
    ys = [_number(y, what) for y in y_list]
    if not all(math.isfinite(v) for v in (_number(x, what), _number(xp, what), q_lo, q_hi, *ys)):
        raise ValueError("x, xp, y and q_window must be finite")

    qs = _linspace(q_lo, q_hi, int(n_points))
    h2 = 2.0 * (qs[1] - qs[0])
    on_pole_nodes = _pole_nodes(qs, branch_points_q(x)) if 0.0 in ys else []

    rows = []
    for y in ys:
        if y == 0.0 and on_pole_nodes and on_pole == "raise":
            raise WindowContainsPole(f"grid node q={qs[on_pole_nodes[0]]} sits on a branch point (y=0)")
        row = MODELS["bgk"](x, (y,), qs, xp)[0]
        for i in on_pole_nodes if y == 0.0 else ():
            row[i] = None
        gaps = [i for i, v in enumerate(row) if not isinstance(v, complex)]  # a pole node or a QplasmaError
        for i in gaps:
            row[i] = None
        max_slope = 0.0
        for lo, hi in zip(row, row[2:]):  # the central difference at each inner node
            if lo is None or hi is None:
                continue
            slope = abs(hi - lo) / h2
            if slope > max_slope:  # a nan slope never replaces the maximum
                max_slope = slope
        if max_slope == math.inf:
            raise NonFiniteResult(f"the maximum |d eps/d q| at y={y!r} overflows")
        rows.append(BroadeningRow(y=y, max_abs_deps_dq=max_slope, skipped_q=tuple(qs[i] for i in gaps)))
    return rows
