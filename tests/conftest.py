"""Shared test helpers: samplers that stay clear of the log branch points,
the grid-step precondition, and scripts/compare_builds.py as a module."""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def branch_distance(x: float, q: float) -> float:
    """Distance of the real shifted arguments x +- q/2 from the branch
    points +-1 (the y = 0 singular set)."""
    return min(abs(abs(x + s * q / 2.0) - 1.0) for s in (1.0, -1.0))


def random_points(n, seed, x_range=(-2.0, 2.0), y_range=(0.01, 3.0),
                  q_range=(0.1, 4.5), margin=1e-3):
    """Deterministic random (x, y, q) triples with the y = 0 branch set at
    least ``margin`` away (rejection sampling)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x = float(rng.uniform(*x_range))
        y = float(rng.uniform(*y_range))
        q = float(rng.uniform(*q_range))
        if branch_distance(x, q) < margin or abs(q - 2.0) < margin:
            continue
        out.append((x, y, q))
    return out


def normal_step(lo, hi, n):
    """Whether the grid step (hi - lo)/(n - 1) is a normal double, the one
    precondition of a _linspace grid that SweepConfig and the scan check."""
    return sys.float_info.min <= (hi - lo) / (n - 1) < math.inf


@functools.cache
def compare_builds():
    """scripts/compare_builds.py, imported once: its draws, call tables and parsers."""
    spec = importlib.util.spec_from_file_location("compare_builds", ROOT / "scripts" / "compare_builds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
