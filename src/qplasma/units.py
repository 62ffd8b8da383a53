"""Conversions between SI physical parameters and the two dimensionless
conventions, plus the derived Fermi-gas quantities.

The SI layer describes the electron gas the paper treats: hbar and the
carrier mass are the CODATA values HBAR and M_E, not inputs.  The plasma
frequency is the Gaussian-units definition omega_p = sqrt(4 pi e_g^2 N / m),
evaluated in SI as sqrt(e^2 N / (eps0 m)) (same number;
e_g^2 = e^2/(4 pi eps0)).  Note that the bare combination 4 pi e^2 N / m is
dimensionally omega_p^2 -- the square root is essential.

Convention A scales frequencies by k*v_F, convention B by k_F*v_F, so that
x_B = x_A * q etc.  The B-coupling is stored as the square,
xp2 = (omega_p/(k_F v_F))^2, which is what makes the two conventions'
permittivities agree; the unsquared ratio omega_p^2/(k_F v_F) is not
dimensionless.

The degenerate-gas relation k_F = m v_F / hbar links the field values;
construction checks it (and the optional density) to 1e-6 relative and
refuses inconsistent inputs rather than silently preferring one.
PhysicalParams, like the points, checks its arguments, not its fields.

One density rule: every density goes through ``fermi_quantities`` and
``plasma_frequency``.  A finite N <= 0 raises ValueError; nan, +-inf, an
int beyond double range, and a density whose 3 pi^2 N, e^2 N or omega_p^2
leaves the normal double range (so that a Fermi quantity or omega_p would
be inf, 0 or short of digits) raise NonFiniteResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite

from .dielectric import DimensionlessPointA, DimensionlessPointB
from .errors import InconsistentParameters, NonFiniteResult, ZeroWavenumber
from .kernels import _normal, _number, _square

__all__ = [
    "HBAR",
    "M_E",
    "E_CHARGE",
    "EPS0",
    "FermiQuantities",
    "PhysicalParams",
    "fermi_quantities",
    "plasma_frequency",
    "to_convention_a",
    "to_convention_b",
    "from_convention_a",
]

# CODATA 2022, the values of scipy.constants (hbar, m_e, e, epsilon_0); kept
# as literals so that importing the package does not import scipy.
HBAR = 1.0545718176461565e-34  # J s
M_E = 9.1093837139e-31  # kg
E_CHARGE = 1.602176634e-19  # C
EPS0 = 8.8541878188e-12  # F/m

_HBAR_OVER_ME = HBAR / M_E  # m^2/s
_REL_TOL = 1e-6
_INF = math.inf


@dataclass(frozen=True)
class FermiQuantities:
    """Fermi wavenumber (1/m), velocity (m/s) and energy (J)."""

    kF: float
    vF: float
    EF: float


def _density(N: float, what: str) -> float:
    """N as a float; nan, +-inf or an int beyond double range raises
    NonFiniteResult, a finite N <= 0 ValueError."""
    N = _number(N, what)
    if not abs(N) < _INF:
        raise NonFiniteResult(f"{what} needs a finite density, got {N!r}")
    if N <= 0.0:
        raise ValueError(f"density must be positive, got {N}")
    return N


def fermi_quantities(N: float) -> FermiQuantities:
    """Fermi-surface quantities of a fully degenerate electron gas of
    density N: kF = (3 pi^2 N)^(1/3), vF = hbar kF / m, EF = m vF^2 / 2.
    Where 3 pi^2 N is normal, so are kF, vF and EF."""
    kF = _normal(3.0 * math.pi ** 2 * _density(N, "fermi_quantities"), "3 pi^2 N") ** (1.0 / 3.0)
    vF = HBAR * kF / M_E
    return FermiQuantities(kF=kF, vF=vF, EF=0.5 * M_E * vF * vF)


def plasma_frequency(N: float) -> float:
    """omega_p = sqrt(e^2 N / (eps0 m))  (Gaussian sqrt(4 pi e_g^2 N / m))."""
    e2N = _normal(E_CHARGE ** 2 * _density(N, "plasma_frequency"), "e^2 N")
    return math.sqrt(_normal(e2N / (EPS0 * M_E), "omega_p^2"))


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional inputs in SI: omega, nu (rad/s, 1/s), k, kF (1/m),
    vF (m/s), omega_p (rad/s) and an optional density N (1/m^3).

    omega and nu may be zero; everything else must be positive.  kF must
    equal vF/(hbar/m) -- the dimensionless reduction assumes it -- and a
    supplied N must reproduce both kF and omega_p, all to 1e-6 relative.
    Int fields are stored as floats (beyond double range: NonFiniteResult);
    a nan or infinite field, or a vF/(hbar/m) that overflows, raises
    NonFiniteResult after the sign and consistency checks.
    """

    omega: float
    nu: float
    k: float
    vF: float
    kF: float
    omega_p: float
    N: float | None = None

    def __init__(self, omega: float, nu: float, k: float, vF: float, kF: float, omega_p: float,
                 N: float | None = None) -> None:
        # Checked on the arguments (ints converted first: int arithmetic can overflow where floats
        # round), which read faster than the fields; a store into the instance dict costs a fraction
        # of the generated frozen __init__'s object.__setattr__.
        if int in (type(omega), type(nu), type(k), type(vF), type(kF), type(omega_p), type(N)):
            omega, nu, k, vF, kF, omega_p, N = (_number(v, "PhysicalParams") if type(v) is int else v
                                                for v in (omega, nu, k, vF, kF, omega_p, N))
        d = self.__dict__
        d["omega"], d["nu"], d["k"], d["vF"], d["kF"], d["omega_p"], d["N"] = omega, nu, k, vF, kF, omega_p, N
        if omega < 0.0:
            raise ValueError(f"omega must be >= 0, got {omega}")
        if nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {nu}")
        if k <= 0.0:
            raise ZeroWavenumber(f"k must be positive, got {k}")
        if vF <= 0.0:
            raise ValueError(f"vF must be positive, got {vF}")
        if kF <= 0.0:
            raise ValueError(f"kF must be positive, got {kF}")
        if omega_p <= 0.0:
            raise ValueError(f"omega_p must be positive, got {omega_p}")
        kF_expected = vF / _HBAR_OVER_ME
        if abs(kF - kF_expected) > _REL_TOL * kF_expected:
            raise InconsistentParameters(f"kF={kF:g} inconsistent with vF/(hbar/m)={kF_expected:g}")
        if N is not None:
            kF_n = fermi_quantities(N).kF
            if abs(kF - kF_n) > _REL_TOL * kF_n:
                raise InconsistentParameters(f"kF={kF:g} inconsistent with (3 pi^2 N)^(1/3)={kF_n:g}")
            wp_n = plasma_frequency(N)
            if abs(omega_p - wp_n) > _REL_TOL * wp_n:
                raise InconsistentParameters(f"omega_p={omega_p:g} inconsistent with density value {wp_n:g}")
        # every field is >= 0 or nan here, so one comparison each finds nan and inf
        if not (omega < _INF and nu < _INF and k < _INF and kF < _INF and omega_p < _INF and kF_expected < _INF):
            raise NonFiniteResult(f"a field or vF/(hbar/m) is not finite: {self!r}")

    @classmethod
    def from_density(cls, omega: float, nu: float, k: float, N: float) -> "PhysicalParams":
        """Derive kF, vF and omega_p from the density."""
        fq = fermi_quantities(N)
        return cls(omega=omega, nu=nu, k=k, vF=fq.vF, kF=fq.kF, omega_p=plasma_frequency(N), N=N)


def _finite(pt, x: float, y: float, q: float, c: float):
    """pt, if its fields x, y, q and c, as computed, are finite; NonFiniteResult otherwise."""
    if not (isfinite(x) and isfinite(y) and isfinite(q) and isfinite(c)):
        raise NonFiniteResult(f"a dimensionless field overflowed or is undefined: {pt!r}")
    return pt


def to_convention_a(p: PhysicalParams) -> DimensionlessPointA:
    """Per-k scaling: x = omega/(k vF), y = nu/(k vF), q = k/kF,
    xp = omega_p/(k vF); a scale k*vF that is not a normal double (inf
    would round every field to 0, 0 leave it undefined, a subnormal cost it
    digits) or a field that is not finite raises NonFiniteResult, after the
    point has checked its fields."""
    s = _normal(p.k * p.vF, "k*vF")
    x, y, q, xp = p.omega / s, p.nu / s, p.k / p.kF, p.omega_p / s
    return _finite(DimensionlessPointA(x, y, q, xp), x, y, q, xp)


def to_convention_b(p: PhysicalParams) -> DimensionlessPointB:
    """Per-k_F scaling: x = omega/(kF vF), y = nu/(kF vF), q = k/kF,
    xp2 = (omega_p/(kF vF))^2; a scale kF*vF that is not a normal double or
    a field that is not finite raises NonFiniteResult, after the point has
    checked its fields."""
    s = _normal(p.kF * p.vF, "kF*vF")
    x, y, q, xp2 = p.omega / s, p.nu / s, p.k / p.kF, _square(p.omega_p / s, "omega_p/(kF vF)")
    return _finite(DimensionlessPointB(x, y, q, xp2), x, y, q, xp2)


def from_convention_a(pt: DimensionlessPointA, kF: float, vF: float) -> PhysicalParams:
    """Invert to_convention_a given the (kF, vF) anchors; an int anchor
    beyond double range raises NonFiniteResult."""
    if kF <= 0.0 or vF <= 0.0:
        raise ValueError("kF and vF must be positive")
    kF, vF = _number(kF, "from_convention_a"), _number(vF, "from_convention_a")
    k = pt.q * kF
    if k <= 0.0:
        raise ZeroWavenumber("q must be positive to reconstruct k")
    s = k * vF
    return PhysicalParams(omega=pt.x * s, nu=pt.y * s, k=k, vF=vF, kF=kF, omega_p=pt.xp * s)
