"""Longitudinal dielectric function and conductivity of a degenerate,
collisional quantum electron plasma.

Three models built on common branch-safe logarithmic kernels:

* the coordinate-space BGK (relaxation) model,
* the collisionless Lindhard (RPA) limit,
* the particle-conserving Mermin model,

plus Kohn-singularity location, an independent Fermi-sphere quadrature
cross-check, SI unit conversions and a sweep CLI (``qplasma``).
"""

from .dielectric import (
    DielectricResult,
    DimensionlessPointA,
    DimensionlessPointB,
    Model,
    branch_points_q,
    epsilon_classical_limit,
    epsilon_collisional_a,
    epsilon_collisional_b,
    epsilon_lindhard,
    epsilon_mermin,
    epsilon_static_collisional,
    epsilon_static_mermin,
    sigma_longitudinal,
)
from .errors import (
    DegenerateQ,
    DenominatorVanishes,
    DivisionByZeroFrequency,
    InconsistentParameters,
    NonFiniteResult,
    NonUpperHalfPlane,
    PoleAtBranchPoint,
    PoleOnContour,
    QplasmaError,
    StaticDenominatorVanishes,
    ToleranceNotReached,
    WindowContainsPole,
    ZeroWavenumber,
)
from .kernels import clog_ratio, g0_a, g0_b, g_a, g_b
from .kohn import (
    BroadeningRow,
    KohnRoot,
    KohnRootSet,
    kohn_roots_dimless,
    kohn_wavenumbers_physical,
    singularity_broadening_scan,
)
from .sweep import SweepConfig, SweepResult, run_sweep
from .units import (
    FermiQuantities,
    PhysicalParams,
    fermi_quantities,
    from_convention_a,
    plasma_frequency,
    to_convention_a,
    to_convention_b,
)

__version__ = "0.1.0"

# The quadrature oracle is the one part that needs numpy and scipy, whose
# import is most of a CLI call's wall time; its names load on first use, so
# that importing the package (and every CLI command but ``verify``) loads
# neither.
_QUADRATURE_NAMES = frozenset({
    "QuadratureSpec",
    "epsilon_from_quadrature",
    "g0_quadrature",
    "oracle_scan",
})


def __getattr__(name: str):
    if name in _QUADRATURE_NAMES:
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
