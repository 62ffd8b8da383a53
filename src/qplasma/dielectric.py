"""Longitudinal dielectric function and conductivity of the degenerate
collisional electron plasma.

Three model families are implemented, all built from the kernels in
:mod:`qplasma.kernels` and all dimensionless:

* ``epsilon_collisional_a`` / ``epsilon_collisional_b`` -- the BGK
  (relaxation-time, coordinate-space) model

      eps = 1 + (3/2) xp^2 * (1 - g(z,+q) + g(z,-q)) / (1 - g0(z))

  in the per-k (A) and per-k_F (B) dimensionless conventions;

* ``epsilon_lindhard`` -- the collisionless (RPA) limit, y = 0;

* ``epsilon_mermin`` -- the particle-conserving momentum-space relaxation
  model,

      eps = 1 + (3/2) xp^2 * z N(z,q) / (x + i y N(z,q)/N0(q)),

  with N(z,q) = 1 - g(z,+q) + g(z,-q) and the static screening combination
  N0(q) = 1 - g(0+,q) + g(0-,q).

Branch-handling note for the static regime q < 2 (w = q/2 < 1): under the
upper-half-plane limit the two static kernels are not exact negatives of
each other -- g(0-,q) = -conj(g(0+,q)) -- but their -i*pi parts cancel in
the combination N0, which is therefore real for every w != 1.  The static
functions here always use the full combination, which keeps the static
dielectric function real, makes the Mermin model conjugation-symmetric,
and makes the omega -> 0 limit of the collisional model continuous.

Conjugation symmetry eps(-x, y, q) = conj(eps(x, y, q)) holds for every
model, so all of them are real at x = 0, and there they return Im eps = 0
exactly: at x = 0 (y >= 0) the two shifted kernels are mirror images,
g(iy,-q) = -conj(g(iy,+q)), and N is computed from g(iy,+q) alone as
1 - 2 Re g(iy,+q).  All routines are pure functions.

Each formula is written once, in :mod:`qplasma.kernels`, as a row function
over q on plain values; this module holds the typed layer over them: the
frozen points, the DielectricResult and its Model tag, and the scalar
epsilon_* and sigma_longitudinal, which run a row of one node.  Both
points are validated by _check_point, on the arguments given (A: its fields).  The row
table ``MODELS``, whose entries all run the one row evaluator
``kernels._rows``, and ``branch_points_q`` are defined in kernels and
re-bound here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DegenerateQ, DivisionByZeroFrequency
from .kernels import (  # MODELS and branch_points_q are re-bound here
    _POINT, _Q0_POINT, MODELS, _bgk_denominator, _bgk_row, _divisor, _floats, _lindhard_row, _mermin_row,
    _nonnegative, _number, _numerator, _one, _require_finite, _sigma, _square, branch_points_q, clog_ratio,
)

__all__ = [
    "Model",
    "DimensionlessPointA",
    "DimensionlessPointB",
    "DielectricResult",
    "epsilon_collisional_a",
    "epsilon_collisional_b",
    "epsilon_lindhard",
    "epsilon_mermin",
    "epsilon_static_mermin",
    "epsilon_static_collisional",
    "epsilon_classical_limit",
    "sigma_longitudinal",
    "branch_points_q",
    "MODELS",
]

class Model(enum.Enum):
    """Which closed form produced a DielectricResult."""

    CollisionalBGK = "bgk"
    Lindhard = "lindhard"
    Mermin = "mermin"
    StaticMermin = "static-mermin"
    StaticCollisional = "static-collisional"
    ClassicalLimit = "classical-limit"


# The tags of the per-point models, read once: each Model.<name> lookup goes
# through the enum metaclass, which costs as much as a small function call
_BGK_TAG, _LINDHARD_TAG, _MERMIN_TAG = Model.CollisionalBGK, Model.Lindhard, Model.Mermin


def _check_point(x: float, y: float, q: float, c: float, coupling: str) -> bool:
    """Check a point's arguments, c being its coupling ``coupling``: y, then c, must be >= 0
    on the values as given, then q != 0; True if one is an int, which the point stores as a
    float.  Not by _nonnegative, as a point is built for every scalar evaluation."""
    if y < 0.0:
        raise ValueError(f"y must be >= 0, got {y}")
    if c < 0.0:
        raise ValueError(f"{coupling} must be >= 0, got {c}")
    if q == 0.0:
        raise DegenerateQ(_Q0_POINT)
    return int in (type(x), type(y), type(q), type(c))


@dataclass(frozen=True)
class DimensionlessPointA:
    """Per-k dimensionless point: x = omega/(k vF), y = nu/(k vF),
    q = k/k_F, xp = omega_p/(k vF)."""

    x: float
    y: float
    q: float
    xp: float

    # No explicit __init__ as in DimensionlessPointB: fields written into the
    # instance dict read slower, and a point is read ~20 times per pointwise
    # evaluation, which cancelled the faster construction.

    def __post_init__(self) -> None:
        if _check_point(self.x, self.y, self.q, self.xp, "xp"):
            _floats(self, type(self).__name__)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class DimensionlessPointB:
    """Per-k_F dimensionless point: x = omega/(k_F vF), y = nu/(k_F vF),
    q = k/k_F, xp2 = (omega_p/(k_F vF))^2."""

    x: float
    y: float
    q: float
    xp2: float

    def __init__(self, x: float, y: float, q: float, xp2: float) -> None:
        # The generated frozen __init__ stores each field through
        # object.__setattr__; a store into the instance dict costs a fraction.
        d = self.__dict__
        d["x"], d["y"], d["q"], d["xp2"] = x, y, q, xp2
        if _check_point(x, y, q, xp2, "xp2"):  # the arguments, not the fields just stored
            _floats(self, type(self).__name__)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class DielectricResult:
    """Complex permittivity, the matching dimensionless conductivity (when
    the model defines one) and the model tag.

    ``sigma`` is sigma_l/sigma_0 for collisional points with y > 0; for
    y = 0 it is the collisionless form sigma_l * m k vF / (e^2 N), which
    stays finite as nu -> 0.  Models without a published conductivity
    (Mermin, static, classical) carry ``sigma = None``.
    """

    epsilon: complex
    sigma: complex | None
    model: Model

    def __init__(self, epsilon: complex, sigma: complex | None, model: Model) -> None:
        d = self.__dict__  # as DimensionlessPointB.__init__
        d["epsilon"], d["sigma"], d["model"] = epsilon, sigma, model


def _collisional_ratio(z: complex, q: float) -> complex:
    """N(z,q) / (1 - g0(z)), the kernel ratio shared by eps and sigma."""
    den = _bgk_denominator(z)
    return _one(_numerator(z, (q,), _POINT)) / den


def epsilon_collisional_a(p: DimensionlessPointA) -> DielectricResult:
    """BGK-model permittivity in convention A.

    eps = 1 + (3/2) xp^2 N(z,q)/(1 - g0(z)); sigma is filled through the
    eps = 1 + 4*pi*i*sigma/omega duality recast dimensionlessly.
    """
    eps, sigma = _bgk_row(p.x, p.y, p.xp, (p.q,))
    return DielectricResult(_one(eps), sigma[0], _BGK_TAG)


def epsilon_collisional_b(p: DimensionlessPointB) -> DielectricResult:
    """BGK-model permittivity in convention B:
    eps = 1 + (3 xp2 / (2 q^2)) (1 - g+(z,q) + g-(z,q)) / (1 - g0(z,q)).

    The kernel ratio is even in q and is the convention-A ratio at z/|q|.
    sigma is the convention-A conductivity at the signed x/q, y/q, so it is
    odd in q at y = 0 and even in q for y > 0.
    """
    x, y, q, xp2 = p.x, p.y, p.q, p.xp2
    a = abs(q)
    ratio = _collisional_ratio(complex(x, y) / a, a)
    q2 = _divisor(_square(q, "q"), "q**2")
    eps = _require_finite(1.0 + 1.5 * xp2 / q2 * ratio, "epsilon_collisional_b")
    sigma = _require_finite(_sigma(x / q, y / q) * ratio, "sigma")
    return DielectricResult(eps, sigma, _BGK_TAG)


def epsilon_lindhard(x: float, q: float, xp: float) -> DielectricResult:
    """Collisionless (RPA) permittivity, the y = 0 limit of both the BGK and
    Mermin models: eps = 1 + (3/2) xp^2 (1 - g(x,+q) + g(x,-q))."""
    _nonnegative("xp", xp)
    if q == 0.0:
        raise DegenerateQ(_Q0_POINT)
    # every argument is converted before x is checked, as a point's are
    x, q, xp = _number(x, "epsilon_lindhard"), _number(q, "epsilon_lindhard"), _number(xp, "epsilon_lindhard")
    eps, sigma = _lindhard_row(x, 0.0, xp, (q,))
    return DielectricResult(_one(eps), sigma[0], _LINDHARD_TAG)


def epsilon_mermin(p: DimensionlessPointA) -> DielectricResult:
    """Particle-conserving (Mermin) permittivity.

    x = 0 routes directly to the static value, which is independent of y;
    y = 0 reduces to the Lindhard form.  Otherwise

        eps = 1 + (3/2) xp^2 z N(z,q) / (x + i y N(z,q)/N0(q)).
    """
    return DielectricResult(_one(_mermin_row(p.x, p.y, p.xp, (p.q,), [])[0]), None, _MERMIN_TAG)


def _static_q(w: float) -> float:
    """q = 2w of a static limit given at half-wavenumber w > 0."""
    w = _number(w, "a static limit")
    if w <= 0.0:
        raise ValueError(f"w must be > 0, got {w}")
    return 2.0 * w


def epsilon_static_mermin(w: float, xp: float) -> DielectricResult:
    """Static (omega = 0) Mermin permittivity at half-wavenumber w = q/2:

        eps = 1 + (3/2) xp^2 [1 - (w^2-1)/(2w) ln|(w+1)/(w-1)|].

    Evaluated as epsilon_mermin at x = 0, q = 2w (whose static route is
    independent of y).  Real for every w != 1 (see the module docstring for
    the w < 1 branch discussion); w = 1 is the Kohn branch point and raises.
    """
    p = DimensionlessPointA(0.0, 0.0, _static_q(w), xp)
    return DielectricResult(epsilon_mermin(p).epsilon, None, Model.StaticMermin)


def epsilon_static_collisional(y: float, w: float, xp: float) -> DielectricResult:
    """Static limit of the BGK model at half-wavenumber w = q/2:

        eps = 1 + (3/2) xp^2 [1 - (iy/2) ln((iy+1)/(iy-1))]^(-1)
              * [1 - ((iy+w)^2-1)/(4w) ln((iy+w+1)/(iy+w-1))
                   + ((iy-w)^2-1)/(4w) ln((iy-w+1)/(iy-w-1))].

    Evaluated as epsilon_collisional_a at x = 0, q = 2w, hence real (Im eps
    is exactly 0) for all y >= 0; at y = 0 it coincides with the static
    Mermin value.
    """
    p = DimensionlessPointA(0.0, _number(y, "epsilon_static_collisional"), _static_q(w), xp)
    return DielectricResult(epsilon_collisional_a(p).epsilon, None, Model.StaticCollisional)


def epsilon_classical_limit(z: complex, xp: float) -> DielectricResult:
    """q -> 0 (vanishing hbar) limit of the BGK model:

        eps = 1 + (3/2) xp^2 (2 - z L(z)) / (1 - (i Im z / 2) L(z)).

    The numerator is the q -> 0 limit of 1 - g(z,+q) + g(z,-q) and the
    denominator is the BGK 1 - g0(z); the limit is cross-checked numerically
    in the test suite via q in {1e-2, 1e-3, 1e-4} with a Richardson
    extrapolation in q^2.
    """
    z = _number(z, "epsilon_classical_limit", complex)
    _nonnegative("xp", xp)
    num = 2.0 - z * clog_ratio(z)
    den = _bgk_denominator(z)
    eps = _require_finite(1.0 + 1.5 * _square(xp, "xp") * num / den, "epsilon_classical_limit")
    return DielectricResult(eps, None, Model.ClassicalLimit)


def sigma_longitudinal(p: DimensionlessPointA) -> complex:
    """Longitudinal conductivity of the BGK model.

    For y > 0 the value is sigma_l/sigma_0 = -(3i/2) x y N(z,q)/(1 - g0(z))
    with sigma_0 = e^2 N/(m nu); for y = 0 sigma_0 diverges, so the
    collisionless normalisation sigma_l m k vF/(e^2 N) = -(3i/2) x N is
    returned instead.  x = 0 raises DivisionByZeroFrequency: the duality
    eps = 1 + 4*pi*i*sigma/omega cannot be inverted at omega = 0.
    """
    if p.x == 0.0:
        raise DivisionByZeroFrequency("sigma_0-normalised conductivity needs omega != 0")
    return _require_finite(_sigma(p.x, p.y) * _collisional_ratio(complex(p.x, p.y), p.q), "sigma_longitudinal")
