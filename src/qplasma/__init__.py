"""Longitudinal dielectric function and conductivity of a degenerate,
collisional quantum electron plasma.

Three models built on common branch-safe logarithmic kernels:

* the coordinate-space BGK (relaxation) model,
* the collisionless Lindhard (RPA) limit,
* the particle-conserving Mermin model,

plus Kohn-singularity location, an independent Fermi-sphere quadrature
cross-check, SI unit conversions and a sweep CLI (``qplasma``).

Importing the package loads none of its modules: each public name loads the
module the table below names on first use (PEP 562).  So a CLI command loads
only the modules it runs, and only ``qplasma verify`` loads numpy and scipy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it exports (its __all__)
_MODULES = {
    "dielectric": """DielectricResult DimensionlessPointA DimensionlessPointB Model branch_points_q
        epsilon_classical_limit epsilon_collisional_a epsilon_collisional_b epsilon_lindhard epsilon_mermin
        epsilon_static_collisional epsilon_static_mermin sigma_longitudinal""",
    "errors": """DegenerateQ DenominatorVanishes DivisionByZeroFrequency InconsistentParameters NonFiniteResult
        NonUpperHalfPlane PoleAtBranchPoint PoleOnContour QplasmaError StaticDenominatorVanishes
        ToleranceNotReached WindowContainsPole ZeroWavenumber""",
    "kernels": "clog_ratio g0_a g0_b g_a g_b",
    "kohn": "BroadeningRow KohnRoot KohnRootSet kohn_roots_dimless kohn_wavenumbers_physical singularity_broadening_scan",
    "quadrature": "QuadratureSpec epsilon_from_quadrature g0_quadrature oracle_scan",
    "sweep": "SweepConfig SweepResult run_sweep",
    "units": """FermiQuantities PhysicalParams fermi_quantities from_convention_a plasma_frequency
        to_convention_a to_convention_b""",
}
_NAMES = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_NAMES)


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_NAMES[name]}", __name__), name)  # bound from now on
    return value


def __dir__():
    return [*globals(), *_NAMES]
