"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time
from pathlib import Path

import numpy as np
from conftest import branch_distance

from qplasma.dielectric import (
    DimensionlessPointA,
    DimensionlessPointB,
    epsilon_classical_limit,
    epsilon_collisional_a,
    epsilon_collisional_b,
    epsilon_lindhard,
    epsilon_mermin,
    epsilon_static_collisional,
    epsilon_static_mermin,
    sigma_longitudinal,
)
from qplasma.kohn import kohn_roots_dimless, singularity_broadening_scan
from qplasma.quadrature import oracle_scan
from qplasma.sweep import SweepConfig, load_config_file, parse_q_range, run_sweep

A = DimensionlessPointA
ROOT = Path(__file__).resolve().parent.parent


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    worst, worst_pt = oracle_scan(n_points=200, seed=20240901)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    _report(1, "oracle equivalence", ok,
            f"max rel err {worst:.3e} at {worst_pt}, {elapsed:.1f}s")


def test_criterion_02_lindhard_limit():
    xs = np.linspace(0.1, 1.6, 20)
    qs = np.linspace(0.3, 4.0, 20)
    grid = [(float(x), float(q)) for x in xs for q in qs
            if branch_distance(float(x), float(q)) >= 0.15]
    max_bgk, max_mer = {}, {}
    for y in (1e-2, 1e-4, 1e-6):
        worst_b = worst_m = 0.0
        for x, q in grid:
            lind = epsilon_lindhard(x, q, 1.0).epsilon
            worst_b = max(worst_b, abs(epsilon_collisional_a(A(x, y, q, 1.0)).epsilon - lind))
            worst_m = max(worst_m, abs(epsilon_mermin(A(x, y, q, 1.0)).epsilon - lind))
        max_bgk[y], max_mer[y] = worst_b, worst_m
    ok = (
        max_bgk[1e-6] < 1e-4 and max_mer[1e-6] < 1e-4
        and max_bgk[1e-2] > max_bgk[1e-4] > max_bgk[1e-6]
        and max_mer[1e-2] > max_mer[1e-4] > max_mer[1e-6]
    )
    _report(2, "Lindhard limit", ok,
            f"BGK {max_bgk[1e-6]:.2e}, Mermin {max_mer[1e-6]:.2e} at y=1e-6; "
            f"monotone over y=1e-2,1e-4,1e-6")


def test_criterion_03_static_mermin_nu_independence():
    worst = 0.0
    for q in (0.5, 1.5, 3.0):
        vals = [epsilon_mermin(A(0.0, y, q, 1.0)).epsilon for y in (1e-3, 0.1, 1.0)]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst = max(worst, abs(vals[i] - vals[j]))
    ok = worst < 1e-12
    _report(3, "static Mermin nu-independence", ok, f"max spread {worst:.3e}")


def test_criterion_04_static_consistency():
    worst_static = 0.0
    for w in (0.3, 0.7, 2.0, 5.0):
        a = epsilon_static_collisional(0.0, w, 1.0).epsilon
        b = epsilon_static_mermin(w, 1.0).epsilon
        worst_static = max(worst_static, abs(a - b))
    worst_bgk = 0.0
    for y in (0.01, 0.5):
        for w in (0.3, 0.7, 2.0, 5.0):
            a = epsilon_static_collisional(y, w, 1.0).epsilon
            b = epsilon_collisional_a(A(0.0, y, 2.0 * w, 1.0)).epsilon
            worst_bgk = max(worst_bgk, abs(a - b) / abs(b))
    ok = worst_static < 1e-12 and worst_bgk < 1e-12
    _report(4, "static consistency", ok,
            f"vs static Mermin {worst_static:.3e}, vs BGK(x=0) {worst_bgk:.3e}")


def test_criterion_05_classical_limit():
    rng = np.random.default_rng(5)
    pts = []
    while len(pts) < 10:
        x = float(rng.uniform(-1.5, 1.5))
        y = float(rng.uniform(0.05, 2.0))
        if min(abs(abs(x) - 1.0), 1.0) < 0.05:
            continue
        pts.append((x, y))
    worst_final = 0.0
    monotone = True
    for x, y in pts:
        cl = epsilon_classical_limit(complex(x, y), 1.0).epsilon
        errs = [abs(epsilon_collisional_a(A(x, y, q, 1.0)).epsilon - cl)
                for q in (1e-2, 1e-3, 1e-4)]
        worst_final = max(worst_final, errs[2])
        monotone = monotone and errs[0] > errs[1] > errs[2]
    ok = worst_final < 1e-6 and monotone
    _report(5, "classical limit", ok,
            f"max |diff| {worst_final:.3e} at q=1e-4, error decreasing through q=1e-2..1e-4")


def test_criterion_06_kohn_roots():
    worst_residual = 0.0
    for x in np.linspace(-0.4, 0.4, 161):
        for r in kohn_roots_dimless(float(x)).roots:
            worst_residual = max(worst_residual, r.residual)
    splitting_ok = True
    for x in (0.005, 0.01, 0.02, 0.05):
        roots = kohn_roots_dimless(x).roots
        ratio = (roots[0].q.real - roots[1].q.real) / (2.0 * x)
        splitting_ok = splitting_ok and 0.99 <= ratio <= 1.01
    at0 = sorted(r.q.real for r in kohn_roots_dimless(0.0).roots)
    zeros_ok = at0 == [-2.0, -2.0, 0.0, 2.0]
    ok = worst_residual < 1e-10 and splitting_ok and zeros_ok
    _report(6, "Kohn roots", ok,
            f"max residual {worst_residual:.2e}, splitting in [0.99,1.01], x=0 multiset {at0}")


def test_criterion_07_figure_reproduction():
    ok = True
    details = []
    for name in ("fig1.cfg", "fig2.cfg", "fig3.cfg"):
        values = load_config_file(ROOT / "configs" / name)
        ys = tuple(float(t) for t in values["y"].split(","))
        xp = float(values["xp"])
        x = float(values["x"])
        rows = singularity_broadening_scan(x, xp, ys, (1.8, 2.2))
        slopes = [r.max_abs_deps_dq for r in rows]
        decreasing = all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))
        # realness of the actual shipped sweep output
        q_min, q_max, q_steps = parse_q_range(values["q"])
        cfg = SweepConfig(model=values["model"], x=x, y=ys, q_min=q_min,
                          q_max=q_max, q_steps=q_steps, xp=xp,
                          output="unused", fmt="csv")
        res = run_sweep(cfg, write=False)
        max_im = max(abs(e.imag) for row in res.eps for e in row if e is not None)
        ok = ok and decreasing and max_im < 1e-12 and not res.skipped
        details.append(f"{name}: slopes {['%.3g' % s for s in slopes]}, max|Im| {max_im:.1e}")
    _report(7, "figure reproduction", ok, "; ".join(details))


def test_criterion_08_symmetries():
    # the convention-B point uses the physical map x_B = x q, y_B = y q
    rng = np.random.default_rng(8)
    worst_conj = worst_even = 0.0
    n = 0
    while n < 100:
        x = float(rng.uniform(0.05, 2.0))
        y = float(rng.uniform(0.01, 2.0))
        q = float(rng.uniform(0.1, 4.5))
        if branch_distance(x, q) < 1e-3 or abs(q - 2.0) < 1e-3:
            continue
        n += 1
        xb, yb = x * q, y * q
        triples = (
            (epsilon_collisional_a(A(x, y, q, 1.0)).epsilon,
             epsilon_collisional_a(A(-x, y, q, 1.0)).epsilon,
             epsilon_collisional_a(A(x, y, -q, 1.0)).epsilon),
            (epsilon_mermin(A(x, y, q, 1.0)).epsilon,
             epsilon_mermin(A(-x, y, q, 1.0)).epsilon,
             epsilon_mermin(A(x, y, -q, 1.0)).epsilon),
            (epsilon_lindhard(x, q, 1.0).epsilon,
             epsilon_lindhard(-x, q, 1.0).epsilon,
             epsilon_lindhard(x, -q, 1.0).epsilon),
            (epsilon_collisional_b(DimensionlessPointB(xb, yb, q, 1.0)).epsilon,
             epsilon_collisional_b(DimensionlessPointB(-xb, yb, q, 1.0)).epsilon,
             epsilon_collisional_b(DimensionlessPointB(xb, yb, -q, 1.0)).epsilon),
        )
        for base, mirrored, flipped in triples:
            worst_conj = max(worst_conj, abs(mirrored - base.conjugate()) / abs(base))
            worst_even = max(worst_even, abs(flipped - base) / abs(base))
    ok = worst_conj < 1e-12 and worst_even < 1e-12
    _report(8, "symmetries", ok,
            f"conjugation {worst_conj:.2e}, q-evenness {worst_even:.2e} on 100 points x 4 models")


def test_criterion_09_sigma_epsilon_duality():
    rng = np.random.default_rng(9)
    worst = 0.0
    n = 0
    while n < 50:
        x = float(rng.uniform(0.05, 2.0))
        y = float(rng.uniform(0.01, 3.0))
        q = float(rng.uniform(0.1, 4.5))
        xp = float(rng.uniform(0.2, 3.0))
        if branch_distance(x, q) < 1e-3:
            continue
        n += 1
        p = A(x, y, q, xp)
        from_eps = epsilon_collisional_a(p).epsilon - 1.0
        from_sigma = sigma_longitudinal(p) * 1j * xp ** 2 / (x * y)
        worst = max(worst, abs(from_eps - from_sigma) / abs(from_eps))
    ok = worst < 1e-14
    _report(9, "sigma-epsilon duality", ok, f"max rel diff {worst:.3e} on 50 points")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run in (1, 2):
        cfg = SweepConfig(
            model="bgk", x=0.0, y=(0.0, 0.005, 0.01),
            q_min=1.5, q_max=2.5, q_steps=501, xp=1.0,
            output=str(tmp_path / f"det{run}"), fmt="csv",
        )
        outputs.append(run_sweep(cfg).csv_path.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(10, "determinism", ok,
            f"byte-identical CSV across two runs of one sweep ({len(outputs[0])} bytes)")
