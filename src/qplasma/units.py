"""Conversions between SI physical parameters and the two dimensionless
conventions, plus the derived Fermi-gas quantities.

Inputs are SI.  The plasma frequency is the Gaussian-units definition
omega_p = sqrt(4 pi e_g^2 N / m), evaluated in SI as sqrt(e^2 N / (eps0 m))
(same number; e_g^2 = e^2/(4 pi eps0)).  Note that the bare combination
4 pi e^2 N / m is dimensionally omega_p^2 -- the square root is essential.

Convention A scales frequencies by k*v_F, convention B by k_F*v_F, so that
x_B = x_A * q etc.  The B-coupling is stored as the square,
xp2 = (omega_p/(k_F v_F))^2, which is what makes the two conventions'
permittivities agree; the unsquared ratio omega_p^2/(k_F v_F) is not
dimensionless.

The degenerate-gas relation k_F = m v_F / hbar links the field values;
construction checks it (and the optional density) to 1e-6 relative and
refuses inconsistent inputs rather than silently preferring one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dielectric import DimensionlessPointA, DimensionlessPointB, _divisor, _square
from .errors import InconsistentParameters, NonFiniteResult, ZeroWavenumber

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

_REL_TOL = 1e-6


@dataclass(frozen=True)
class FermiQuantities:
    """Fermi wavenumber (1/m), velocity (m/s) and energy (J)."""

    kF: float
    vF: float
    EF: float


def fermi_quantities(N: float, m: float = M_E, hbar: float = HBAR) -> FermiQuantities:
    """Fermi-surface quantities of a fully degenerate gas of density N:
    kF = (3 pi^2 N)^(1/3), vF = hbar kF / m, EF = m vF^2 / 2."""
    if N <= 0.0:
        raise ValueError(f"density must be positive, got {N}")
    kF = (3.0 * math.pi ** 2 * N) ** (1.0 / 3.0)
    vF = hbar * kF / m
    return FermiQuantities(kF=kF, vF=vF, EF=0.5 * m * vF * vF)


def plasma_frequency(N: float, m: float = M_E) -> float:
    """omega_p = sqrt(e^2 N / (eps0 m))  (Gaussian sqrt(4 pi e_g^2 N / m))."""
    if N <= 0.0:
        raise ValueError(f"density must be positive, got {N}")
    return math.sqrt(E_CHARGE ** 2 * N / (EPS0 * m))


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional inputs in SI: omega, nu (rad/s, 1/s), k, kF (1/m),
    vF (m/s), omega_p (rad/s), optional density N (1/m^3) and the hbar/m
    ratio (m^2/s, electron by default).

    omega and nu may be zero; everything else must be positive.  kF must
    equal vF/(hbar/m) -- the dimensionless reduction assumes it -- and a
    supplied N must reproduce both kF and omega_p, all to 1e-6 relative.
    """

    omega: float
    nu: float
    k: float
    vF: float
    kF: float
    omega_p: float
    N: float | None = None
    hbar_over_m: float = HBAR / M_E

    def __post_init__(self) -> None:
        if self.omega < 0.0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if self.k <= 0.0:
            raise ZeroWavenumber(f"k must be positive, got {self.k}")
        for name in ("vF", "kF", "omega_p", "hbar_over_m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        kF_expected = self.vF / self.hbar_over_m
        if abs(self.kF - kF_expected) > _REL_TOL * kF_expected:
            raise InconsistentParameters(
                f"kF={self.kF:g} inconsistent with vF/(hbar/m)={kF_expected:g}"
            )
        if self.N is not None:
            if self.N <= 0.0:
                raise ValueError(f"N must be positive, got {self.N}")
            kF_n = (3.0 * math.pi ** 2 * self.N) ** (1.0 / 3.0)
            if abs(self.kF - kF_n) > _REL_TOL * kF_n:
                raise InconsistentParameters(
                    f"kF={self.kF:g} inconsistent with (3 pi^2 N)^(1/3)={kF_n:g}"
                )
            m_eff = HBAR / self.hbar_over_m
            wp_n = plasma_frequency(self.N, m_eff)
            if abs(self.omega_p - wp_n) > _REL_TOL * wp_n:
                raise InconsistentParameters(
                    f"omega_p={self.omega_p:g} inconsistent with density value {wp_n:g}"
                )

    @classmethod
    def from_density(
        cls,
        omega: float,
        nu: float,
        k: float,
        N: float,
        m: float = M_E,
        hbar: float = HBAR,
    ) -> "PhysicalParams":
        """Derive kF, vF and omega_p from the density."""
        fq = fermi_quantities(N, m, hbar)
        return cls(
            omega=omega, nu=nu, k=k, vF=fq.vF, kF=fq.kF,
            omega_p=plasma_frequency(N, m), N=N, hbar_over_m=hbar / m,
        )


def _finite(pt):
    """pt, if every field is finite; NonFiniteResult otherwise."""
    if not all(map(math.isfinite, vars(pt).values())):
        raise NonFiniteResult(f"a dimensionless field overflowed or is undefined: {pt!r}")
    return pt


def to_convention_a(p: PhysicalParams) -> DimensionlessPointA:
    """Per-k scaling: x = omega/(k vF), y = nu/(k vF), q = k/kF,
    xp = omega_p/(k vF); a field that is not finite raises NonFiniteResult."""
    s = _divisor(p.k * p.vF, "k*vF")
    return _finite(DimensionlessPointA(x=p.omega / s, y=p.nu / s, q=p.k / p.kF, xp=p.omega_p / s))


def to_convention_b(p: PhysicalParams) -> DimensionlessPointB:
    """Per-k_F scaling: x = omega/(kF vF), y = nu/(kF vF), q = k/kF,
    xp2 = (omega_p/(kF vF))^2; a field that is not finite raises
    NonFiniteResult."""
    s = _divisor(p.kF * p.vF, "kF*vF")
    return _finite(DimensionlessPointB(
        x=p.omega / s, y=p.nu / s, q=p.k / p.kF, xp2=_square(p.omega_p / s, "omega_p/(kF vF)")
    ))


def from_convention_a(
    pt: DimensionlessPointA, kF: float, vF: float, hbar_over_m: float = HBAR / M_E
) -> PhysicalParams:
    """Invert to_convention_a given the (kF, vF) anchors."""
    if kF <= 0.0 or vF <= 0.0:
        raise ValueError("kF and vF must be positive")
    k = pt.q * kF
    if k <= 0.0:
        raise ZeroWavenumber("q must be positive to reconstruct k")
    s = k * vF
    return PhysicalParams(
        omega=pt.x * s, nu=pt.y * s, k=k, vF=vF, kF=kF,
        omega_p=pt.xp * s, hbar_over_m=hbar_over_m,
    )
