"""Seeded input generation for the four benchmark workloads.

Everything the program under test receives is built here from the
workload seed alone, with the standard library only, so the same seed gives
the same inputs on any machine.  Each generator returns one *pass*: a list
of distinct op specs (plain dicts) whose composition of kinds and sizes is
fixed, whatever the seed; the seed moves only the parameters inside each op.
A run repeats the pass, so every op is timed several times.

Expected outcomes (exit codes, error classes, nudged and skipped grid
nodes) are attached to the specs here, from the documented behaviour of the
library, so the correctness gate never asks the program what it should
have done.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli", "grid", "pointwise", "oracle")

# hbar / m_e from CODATA 2022; the library checks kF = vF / (hbar/m) to 1e-6
HBAR_OVER_ME = 1.054571817e-34 / 9.1093837139e-31

# Grid rows: q-node counts log-spaced over [ROW_MIN, ROW_MAX], one random
# sweep of a pass per size and LARGEST_ROWS of the largest, whose models
# cycle through BGK, Mermin and Lindhard: most of a pass's time goes to
# these, and their seeded windows average out over several sweeps.
# README.md explains the upper bound.
ROW_MIN = 501
ROW_MAX = 4096
RANDOM_SWEEPS_PER_PASS = 4
LARGEST_ROWS = 4
# Figure-like x = 0 sweeps per pass, the size of the shipped figures: the
# median op falls among them, not between two row sizes.
FIGURE_SWEEPS_PER_PASS = 4
# Dyadic grid spacings: every node, branch point and q = 0 is exact in binary.
NUDGE_H = 2.0 ** -9
NUDGE_NODES = 501
KOHN_H = 2.0 ** -9
# The shipped figure windows (configs/fig{1,2,3}.cfg): x = 0, q in [1.5, 2.5].
FIGURES = {1: (1.0, (0.0, 0.005, 0.01)), 2: (10.0, (0.0, 0.01, 0.02)), 3: (10.0, (0.0, 0.002, 0.004))}
SCAN_POINTS = 2001

POINTWISE_POINTS = 4096
POINTWISE_SAMPLE = 96
ORACLE_POINTS = 3920
ORACLE_SCANS = 80
ORACLE_SCAN_POINTS = 20


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def branch_points_q(x: float) -> tuple[float, ...]:
    """q where x +- q/2 = +-1 (the y = 0 kernel branch points)."""
    return (2.0 * (1.0 - x), 2.0 * (1.0 + x), -2.0 * (1.0 - x), -2.0 * (1.0 + x))


def singular_q(model: str, x: float, ys) -> list[float]:
    """Nodes the sweep documents as nudged: y = 0 branch points (any model
    with a y = 0 row, and Lindhard), plus q = +-2 for Mermin, whose x = 0
    route is static for every y."""
    qs: list[float] = []
    if model == "lindhard" or 0.0 in ys:
        qs.extend(branch_points_q(x))
    if model == "mermin":
        qs.extend((2.0, -2.0))
        if x == 0.0:
            qs.extend(branch_points_q(0.0))
    return qs


def node_gap(q_min: float, q_max: float, n: int, poles) -> float:
    """Smallest distance between a node of the uniform q grid and a pole."""
    step = (q_max - q_min) / (n - 1)
    gap = math.inf
    for b in poles:
        i = min(n - 1, max(0, round((b - q_min) / step)))
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                gap = min(gap, abs(q_min + j * step - b))
    return gap


# ---------------------------------------------------------------- cli ----

def _bad_config(rng: random.Random) -> str:
    good = {"model": "bgk", "x": "0.3", "y": "0,0.01", "q": "0.5:2.5:101", "xp": "1"}
    kind = rng.choice(("model", "y", "q", "missing"))
    if kind == "model":
        good["model"] = "drude"
    elif kind == "y":
        good["y"] = "-0.1"
    elif kind == "q":
        good["q"] = "2.5:0.5:101"
    else:
        del good["xp"]
    return "".join(f"{k} = {v}\n" for k, v in good.items()) + "output = unused\n"


def cli_pass(seed: int) -> list[dict]:
    """8 `python -m qplasma` invocations: one figure sweep (fig1, fig2 or
    fig3 by seed), compare as text and as JSON, kohn dimensionless and
    physical, verify, and two calls that must fail: a bad config (exit 2)
    and a compare on a branch point (exit 1)."""
    rng = rng_for("cli", seed)
    ops: list[dict] = [{"kind": "sweep", "fig": 1 + seed % 3, "expect_exit": 0, "points": 3 * 501}]
    for as_json in (False, True):
        ops.append({
            "kind": "compare", "json": as_json, "expect_exit": 0, "points": 3,
            "x": rng.uniform(-2.0, 2.0), "y": rng.choice((0.0, rng.uniform(1e-3, 10.0))),
            "q": rng.uniform(0.05, 5.0), "xp": _log_uniform(rng, 0.5, 10.0),
        })
    ops.append({"kind": "kohn", "x": rng.uniform(-1.0, 1.0), "expect_exit": 0, "points": 0})
    kf = (3.0 * math.pi ** 2 * _log_uniform(rng, 1e27, 1e30)) ** (1.0 / 3.0)
    vf = kf * HBAR_OVER_ME
    ops.append({"kind": "kohn_physical", "omega": rng.uniform(0.01, 1.0) * kf * vf,
                "kf": kf, "vf": vf, "expect_exit": 0, "points": 0})
    ops.append({"kind": "verify", "points_arg": 60, "seed": rng.randrange(2 ** 31),
                "expect_exit": 0, "points": 60})
    ops.append({"kind": "bad_config", "text": _bad_config(rng), "expect_exit": 2, "points": 0})
    # x dyadic, q = 2(1 - x): the shifted argument x + q/2 is exactly 1
    x = rng.choice((-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75))
    ops.append({"kind": "eval_error", "x": x, "q": 2.0 * (1.0 - x), "xp": 1.0,
                "expect_exit": 1, "expect_error": "PoleAtBranchPoint", "points": 0})
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- grid ----

def _sample_cells(rng: random.Random, n_q: int, n_y: int, k: int, must=()) -> list[tuple[int, int]]:
    cells = {(rng.randrange(n_q), rng.randrange(n_y)) for _ in range(k)}
    cells.update(must)
    return sorted(cells)


def _random_sweep(rng: random.Random, stratum: int, k: int | None = None) -> dict:
    """Row size on a log-spaced ladder from ROW_MIN to ROW_MAX; the model
    and whether y = 0 are fixed by the stratum (or, for the k-th sweep of
    the largest size, by k), so every pass has the same mix and the seed
    only moves x, y, xp and the window."""
    ratio = (ROW_MAX / ROW_MIN) ** (1.0 / (RANDOM_SWEEPS_PER_PASS - 1))
    steps = int(round(ROW_MIN * ratio ** stratum))
    k = stratum if k is None else k
    model = ("bgk", "mermin", "lindhard")[k % 3]
    ys = (0.0,) if model == "lindhard" or k % 2 else (rng.uniform(1e-3, 10.0),)
    while True:
        x = rng.uniform(-2.0, 2.0)
        q_min = rng.uniform(0.05, 2.5)
        q_max = q_min + rng.uniform(0.5, 2.5)
        # keep every node clearly off the nudge tolerance, so none is nudged
        if node_gap(q_min, q_max, steps, singular_q(model, x, ys)) > 1e-6:
            break
    return {
        "kind": "sweep", "model": model, "x": x, "y": ys, "q_min": q_min, "q_max": q_max,
        "q_steps": steps, "xp": _log_uniform(rng, 0.5, 10.0),
        "expect_nudged": [], "expect_skipped": {}, "points": steps * len(ys),
        "sample": _sample_cells(rng, steps, len(ys), 3),
    }


def _nudge_sweep(rng: random.Random, model: str) -> dict:
    """A figure-like window: x = 0, 501 nodes over q in [1.51, 2.49] with the
    middle node exactly on q = 2, which the sweep nudges by +1e-6, and the
    figures' three rows: y = 0 and two small y."""
    half = (NUDGE_NODES - 1) // 2
    small = (rng.uniform(1e-3, 0.01), rng.uniform(0.01, 0.05))
    ys = (0.0, *small)
    return {
        "kind": "sweep", "model": model, "x": 0.0, "y": ys,
        "q_min": 2.0 - half * NUDGE_H, "q_max": 2.0 + half * NUDGE_H, "q_steps": NUDGE_NODES,
        "xp": _log_uniform(rng, 0.5, 10.0), "expect_nudged": [2.0], "expect_skipped": {},
        "points": NUDGE_NODES * len(ys),
        "sample": _sample_cells(rng, NUDGE_NODES, len(ys), 3, must=[(half, 0)]),
    }


def _kohn_sweep(rng: random.Random) -> dict:
    """Finite-x BGK window with a y = 0 row, from just below q = 0 past both
    positive Kohn points 2(1 -+ x): both are nudged, and the q = 0 node is
    skipped (DegenerateQ) in every row."""
    x = rng.choice((-0.5, -0.375, 0.375, 0.5))
    ys = (0.0, rng.uniform(1e-3, 1.0))
    below = rng.randrange(1, 100)
    top = 2.0 * (1.0 + abs(x))
    above = int(round(top / KOHN_H)) + rng.randrange(1, 100)
    nodes = below + above + 1
    return {
        "kind": "sweep", "model": "bgk", "x": x, "y": ys,
        "q_min": -below * KOHN_H, "q_max": above * KOHN_H, "q_steps": nodes,
        "xp": _log_uniform(rng, 0.5, 10.0),
        "expect_nudged": sorted((2.0 * (1.0 - x), 2.0 * (1.0 + x))),
        "expect_skipped": {"DegenerateQ": len(ys)}, "points": nodes * len(ys),
        "sample": _sample_cells(rng, nodes, len(ys), 3, must=[(below, 0)]),
    }


def grid_pass(seed: int) -> list[dict]:
    """13 ops: 3 random-window sweeps of 501, ~1000 and ~2000 nodes and
    LARGEST_ROWS of ROW_MAX nodes (so that the tail percentile falls among
    like ops, not between sizes), 4 figure-like x = 0 sweeps through
    q = 2 (3 BGK, 1 Mermin), 1 finite-x BGK sweep with
    a y = 0 row across the Kohn points and q = 0, and 1 broadening scan on
    a figure window.  All sweeps write CSV and SVG."""
    rng = rng_for("grid", seed)
    top = RANDOM_SWEEPS_PER_PASS - 1
    ops = [_random_sweep(rng, k) for k in range(top)]
    ops += [_random_sweep(rng, top, k) for k in range(LARGEST_ROWS)]
    ops += [_nudge_sweep(rng, "bgk") for _ in range(FIGURE_SWEEPS_PER_PASS - 1)]
    ops.append(_nudge_sweep(rng, "mermin"))
    ops.append(_kohn_sweep(rng))
    fig = 1 + seed % 3
    xp, ys = FIGURES[fig]
    ops.append({"kind": "scan", "fig": fig, "x": 0.0, "xp": xp, "y": ys,
                "window": (1.5, 2.5), "n_points": SCAN_POINTS, "points": SCAN_POINTS * len(ys)})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------- pointwise ----

def pointwise_pass(seed: int) -> list[dict]:
    """POINTWISE_POINTS points in x in [-2, 2], q in [0.05, 5],
    y in [0, 10]; a quarter at y = 0 exactly, 2% at x = 0, 3% at q = 0
    (DegenerateQ) and 3% exactly on a y = 0 branch point (PoleAtBranchPoint)."""
    rng = rng_for("pointwise", seed)
    n = POINTWISE_POINTS
    n_zero_q = n_branch = 3 * n // 100
    n_x0 = 2 * n // 100
    n_y0 = n // 4
    pts = []
    for i in range(n):
        density = _log_uniform(rng, 1e27, 1e30)
        kf = (3.0 * math.pi ** 2 * density) ** (1.0 / 3.0)
        p = {"kind": "point", "x": rng.uniform(-2.0, 2.0), "y": rng.uniform(0.0, 10.0), "q": rng.uniform(0.05, 5.0),
             "xp": _log_uniform(rng, 0.5, 10.0), "kf": kf, "vf": kf * HBAR_OVER_ME, "expect": None}
        if i < n_zero_q:
            p["q"], p["expect"] = 0.0, "DegenerateQ"
        elif i < n_zero_q + n_branch:
            x = rng.choice((-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75))
            p.update(x=x, y=0.0, q=rng.choice((2.0 * (1.0 - x), 2.0 * (1.0 + x))), expect="PoleAtBranchPoint")
        else:
            if i < n_zero_q + n_branch + n_x0:
                p["x"] = 0.0
            if rng.random() < n_y0 / n:
                p["y"] = 0.0
            if p["y"] == 0.0 and min(abs(abs(p["x"] + s * p["q"] / 2.0) - 1.0) for s in (1, -1)) < 1e-9:
                p["q"] += 1e-3
        # permittivities asked for: BGK (A and B), Mermin, and Lindhard at y = 0
        p["points"] = 4 if p["y"] == 0.0 else 3
        pts.append(p)
    rng.shuffle(pts)
    ok = [i for i, p in enumerate(pts) if p["expect"] is None]
    for i in rng.sample(ok, POINTWISE_SAMPLE):
        pts[i]["sample"] = True
    return pts


# ------------------------------------------------------------- oracle ----

def _stratified(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """n draws, one from each of n equal strata of [lo, hi] (of its log with
    ``log``), in random order: every seed gets the same spread of values."""
    if log:
        return [math.exp(v) for v in _stratified(rng, n, math.log(lo), math.log(hi))]
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (k + rng.random()) * (hi - lo) / n for k in strata]


def oracle_pass(seed: int) -> list[dict]:
    """ORACLE_POINTS single-point closed-form-vs-quadrature comparisons and
    ORACLE_SCANS oracle_scan calls of ORACLE_SCAN_POINTS points each, spread
    evenly, over the oracle box x in [-2, 2], y in [1e-3, 10], q in [0.05, 5].
    Each coordinate is stratified (a Latin hypercube): the quadrature's cost
    steps with y and the distance to the branch points, and independent
    draws moved the share of costly points, and with it the p90 latency,
    by 0.14 of itself from seed to seed."""
    rng = rng_for("oracle", seed)
    n = ORACLE_POINTS
    ops = [{"kind": "point", "x": x, "y": y, "q": q, "xp": xp, "points": 1}
           for x, y, q, xp in zip(_stratified(rng, n, -2.0, 2.0), _stratified(rng, n, 1e-3, 10.0),
                                  _stratified(rng, n, 0.05, 5.0), _stratified(rng, n, 0.5, 10.0, log=True))]
    every = len(ops) // ORACLE_SCANS
    for k in reversed(range(ORACLE_SCANS)):
        ops.insert(k * every + rng.randrange(every), {"kind": "scan", "n_points": ORACLE_SCAN_POINTS,
                                                      "seed": rng.randrange(2 ** 31), "points": ORACLE_SCAN_POINTS})
    return ops


def pass_for(workload: str, seed: int) -> list[dict]:
    return {"cli": cli_pass, "grid": grid_pass, "pointwise": pointwise_pass,
            "oracle": oracle_pass}[workload](seed)
