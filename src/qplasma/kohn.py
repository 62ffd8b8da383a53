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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dielectric import _divisor, branch_points_q
from .errors import NonFiniteResult, WindowContainsPole
from .sweep import SkippedPoint, _evaluate_row, _linspace, _on_singular_q

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

    @property
    def branch_label(self) -> str:
        s1, s2 = self.branch
        return f"({'+' if s1 > 0 else '-'},{'+' if s2 > 0 else '-'})"


@dataclass(frozen=True)
class KohnRootSet:
    """The four singular wavenumbers of a fixed dimensionless frequency x."""

    x: float
    roots: tuple[KohnRoot, KohnRoot, KohnRoot, KohnRoot]

    def physical_roots(self) -> tuple[complex, ...]:
        return tuple(r.q for r in self.roots if r.physical)


def _residual(q: complex, branch: tuple[int, int], x: float) -> float:
    s1, s2 = branch
    return abs(q * q + 2.0 * s1 * q + 2.0 * s2 * x)


def kohn_roots_dimless(x: float) -> KohnRootSet:
    """All four Kohn singularities of eps(q) at fixed x = omega/(k_F v_F);
    a non-finite x, or |x| so large that 1 +- 2x overflows, raises
    NonFiniteResult."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteResult(f"kohn_roots_dimless needs a finite x, got {x!r}")
    sp = cmath.sqrt(complex(1.0 + 2.0 * x, 0.0))
    sm = cmath.sqrt(complex(1.0 - 2.0 * x, 0.0))
    if not (cmath.isfinite(sp) and cmath.isfinite(sm)):
        raise NonFiniteResult(f"the Kohn roots at x={x!r} overflow")

    # (branch, selected root, other root, principal selection)
    picks = [
        ((-1, -1), 1.0 + sp, 1.0 - sp, True),
        ((-1, +1), 1.0 + sm, 1.0 - sm, True),
        ((+1, -1), -1.0 - sp, -1.0 + sp, True),
        ((+1, +1), -1.0 - sm, -1.0 + sm, True),
    ]
    if x == 0.0:
        # The (-,+) principal root duplicates the (-,-) one; surface the
        # degenerate q = 0 root of that equation instead.
        picks[1] = ((-1, +1), 1.0 - sm, 1.0 + sm, False)

    values = [q for (_, q, _, _) in picks]
    roots = []
    for branch, q, alt, principal in picks:
        repeated = sum(1 for v in values if v == q) > 1
        roots.append(
            KohnRoot(
                q=q,
                q_alt=alt,
                branch=branch,
                degenerate=(q == 0.0) or repeated,
                physical=(q.imag == 0.0 and q.real > 0.0),
                principal=principal,
                residual=_residual(q, branch, x),
            )
        )
    return KohnRootSet(x=x, roots=tuple(roots))


def kohn_wavenumbers_physical(omega: float, kF: float, vF: float) -> tuple[complex, complex, complex, complex]:
    """Dimensional singular wavenumbers (1/length):

        k_{1,2} = k_F + sqrt(k_F^2 +- 2 k_F omega / v_F)
        k_{3,4} = -k_F - sqrt(k_F^2 +- 2 k_F omega / v_F)

    These are k_F times the principal roots of kohn_roots_dimless at
    x = omega/(k_F v_F); at x = 0, where the (-,+) entry reports the
    degenerate root 0, its principal root 2 is used, giving 2k_F, 2k_F,
    -2k_F, -2k_F.  Negative discriminants give complex values; a
    wavenumber that overflows raises NonFiniteResult.
    """
    if not (0.0 < kF < math.inf and 0.0 < vF < math.inf):
        raise ValueError("kF and vF must be positive and finite")
    roots = kohn_roots_dimless(omega / _divisor(kF * vF, "kF*vF")).roots
    ks = tuple(kF * (r.q if r.principal else r.q_alt) for r in roots)
    if not all(cmath.isfinite(k) for k in ks):
        raise NonFiniteResult(f"kF * q overflows: {ks!r}")
    return ks


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
    default) or raise WindowContainsPole (``on_pole="raise"``).  Skipped
    points are never interpolated.
    """
    if on_pole not in ("skip", "raise"):
        raise ValueError(f"on_pole must be 'skip' or 'raise', got {on_pole!r}")
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    q_lo, q_hi = float(q_window[0]), float(q_window[1])
    if not q_hi > q_lo:
        raise ValueError("q_window must satisfy q_min < q_max")

    qs = _linspace(q_lo, q_hi, int(n_points))
    h = qs[1] - qs[0]
    poles = [b for b in branch_points_q(x) if q_lo - h <= b <= q_hi + h]

    rows = []
    for y in y_list:
        y = float(y)
        row_poles = poles if y == 0.0 else ()
        if on_pole == "raise":
            hit = next((q for q in qs if _on_singular_q(q, row_poles)), None)
            if hit is not None:
                raise WindowContainsPole(f"grid node q={hit} sits on a branch point (y=0)")
        row = _evaluate_row("bgk", x, xp, qs, y, row_poles)
        eps = [None if isinstance(v, SkippedPoint) else v for v in row]
        skipped = tuple(v.q for v in row if isinstance(v, SkippedPoint))
        max_slope = 0.0
        for i in range(1, len(qs) - 1):
            lo, hi = eps[i - 1], eps[i + 1]
            if lo is None or hi is None:
                continue
            max_slope = max(max_slope, abs(hi - lo) / (2.0 * h))
        rows.append(BroadeningRow(y=y, max_abs_deps_dq=max_slope, skipped_q=skipped))
    return rows
