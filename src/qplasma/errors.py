"""Typed errors raised by qplasma.

Every numerical pathology gets its own class so that callers (sweeps,
singularity scans) can tell "argument sits on a branch point" apart from
"value merely got large" without string matching.
"""


class QplasmaError(Exception):
    """Base class for all qplasma errors."""


class PoleAtBranchPoint(QplasmaError):
    """A logarithm argument landed exactly on a branch point."""


class NonUpperHalfPlane(QplasmaError):
    """Evaluation requested for Im < 0; only the closed upper half-plane
    (retarded response) is supported."""


class DegenerateQ(QplasmaError):
    """q = 0 passed to a kernel that needs a finite wavenumber; use the
    long-wavelength (classical-limit) routine instead."""


class NonFiniteResult(QplasmaError):
    """An operation overflowed to inf or produced nan."""


class DenominatorVanishes(QplasmaError):
    """|1 - g0| fell below 1e-30: a plasma-mode pathology, not roundoff."""


class StaticDenominatorVanishes(QplasmaError):
    """The static screening combination 1 - g(0+) + g(0-) vanished."""


class DivisionByZeroFrequency(QplasmaError):
    """The sigma_0-normalised conductivity was requested at omega = 0."""


class ToleranceNotReached(QplasmaError):
    """Adaptive quadrature could not meet the requested tolerances."""


class PoleOnContour(QplasmaError):
    """The quadrature oracle was asked for y = 0, where its integrands'
    poles lie on the real axis; it raises this for every y = 0."""


class WindowContainsPole(QplasmaError):
    """A scan grid node coincides with a dielectric branch point at y = 0."""


class ZeroWavenumber(QplasmaError):
    """k = 0 cannot be mapped to the per-k dimensionless conventions."""


class InconsistentParameters(QplasmaError):
    """Redundant physical inputs (density vs. kF vs. omega_p) disagree."""


class ConfigError(ValueError):
    """Bad sweep configuration (maps to CLI exit code 2)."""
