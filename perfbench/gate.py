"""Correctness gate: checks a worker's recorded outputs after the timed loop.

Each ``check_*`` function takes the worker's records and returns a dict
{op index: reason} of failed ops.  Values are compared with an independent
mpmath evaluation of the closed forms (MP_DIGITS significant digits, the
analytic upper-half-plane limit on the real axis) to the library's own
stated relative tolerance, ``qplasma.cli.ORACLE_TOLERANCE``.  This gate
checks that the benchmark's outputs are right; it is not an accuracy audit
of the whole input domain.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from pathlib import Path

import mpmath as mp

MP_DIGITS = 40
mp.mp.dps = MP_DIGITS


# ---------------------------------------------------- mpmath reference ----

def _L(a):
    """ln((a+1)/(a-1)), continuous from the upper half-plane; the real axis
    is the Im a -> 0+ limit."""
    if a.imag == 0:
        r = a.real
        if abs(r) > 1:
            return mp.mpc(mp.log(abs(r + 1)) - mp.log(abs(r - 1)), 0)
        return mp.mpc(mp.log((1 + r) / (1 - r)), -mp.pi)
    return mp.log(a + 1) - mp.log(a - 1)


def _g(z, q, s):
    a = z + s * q / 2
    return (a * a - 1) / (2 * q) * _L(a)


def _g0(z):
    return mp.mpc(0) if z.imag == 0 else mp.mpc(0, 1) * z.imag / 2 * _L(z)


def _n(z, q):
    return 1 - _g(z, q, 1) + _g(z, q, -1)


def _z(x, y):
    return mp.mpc(mp.mpf(x), mp.mpf(y))


def ref_bgk(x, y, q, xp):
    z, q = _z(x, y), mp.mpf(q)
    return 1 + mp.mpf(1.5) * mp.mpf(xp) ** 2 * _n(z, q) / (1 - _g0(z))


def ref_lindhard(x, q, xp):
    return 1 + mp.mpf(1.5) * mp.mpf(xp) ** 2 * _n(_z(x, 0), mp.mpf(q))


def ref_mermin(x, y, q, xp):
    z, q, k = _z(x, y), mp.mpf(q), mp.mpf(1.5) * mp.mpf(xp) ** 2
    n0 = _n(_z(0, 0), q)
    if x == 0:
        return 1 + k * n0
    n = _n(z, q)
    if y == 0:
        return 1 + k * n
    return 1 + k * z * n / (mp.mpf(x) + mp.mpc(0, 1) * mp.mpf(y) * n / n0)


def ref_sigma(x, y, q):
    z = _z(x, y)
    ratio = _n(z, mp.mpf(q)) / (1 - _g0(z))
    scale = mp.mpf(x) if y == 0 else mp.mpf(x) * mp.mpf(y)
    return mp.mpc(0, -1.5) * scale * ratio


def ref_bgk_b(x, y, q, xp2):
    """Convention B, from its own kernels: u = z + s q^2/2,
    g_b = (u^2 - q^2)/(2 q^3) ln((u+q)/(u-q)), g0_b = (i Im z/(2q)) ln((z+q)/(z-q))."""
    z, q = _z(x, y), mp.mpf(q)

    def gb(s):
        u = z + s * q * q / 2
        return (u * u - q * q) / (2 * q ** 3) * _L(u / q)

    g0 = mp.mpc(0) if z.imag == 0 else mp.mpc(0, 1) * z.imag / (2 * q) * _L(z / q)
    return 1 + mp.mpf(1.5) * mp.mpf(xp2) / q ** 2 * (1 - gb(1) + gb(-1)) / (1 - g0)


def rel_err(got, ref) -> float:
    if got is None:
        return math.inf
    g = mp.mpc(got[0], got[1]) if isinstance(got, (list, tuple)) else mp.mpc(got)
    return float(abs(g - ref) / abs(ref))


# -------------------------------------------------------------- checks ----

def check_cli(records, ref_dir: Path, tol: float) -> dict[int, str]:
    bad: dict[int, str] = {}
    for r in records:
        op, i = r["op"], r["i"]
        if r["rc"] != op["expect_exit"]:
            bad[i] = f"{op['kind']}: exit {r['rc']}, expected {op['expect_exit']}: {r['stderr'][-300:]}"
            continue
        reason = _check_cli_output(op, r, ref_dir, tol)
        if reason:
            bad[i] = f"{op['kind']}: {reason}"
    return bad


def _check_cli_output(op, r, ref_dir: Path, tol: float) -> str | None:
    kind, out = op["kind"], r["stdout"]
    if kind == "sweep":
        for path in r["files"]:
            ref = ref_dir / Path(path).name
            if Path(path).read_bytes() != ref.read_bytes():
                return f"{Path(path).name} differs from {ref}"
        return None
    if kind == "compare":
        if op["json"]:
            values = {d["model"]: [d["re"], d["im"]] for d in map(json.loads, out.splitlines())
                      if d["kind"] == "epsilon"}
        else:
            values = {}
            for line in out.splitlines():
                parts = line.split()
                if len(parts) == 3 and parts[0] in ("bgk", "mermin", "lindhard"):
                    values[parts[0]] = [float(parts[1]), float(parts[2])]
        refs = {"bgk": ref_bgk(op["x"], op["y"], op["q"], op["xp"]),
                "mermin": ref_mermin(op["x"], op["y"], op["q"], op["xp"]),
                "lindhard": ref_lindhard(op["x"], op["q"], op["xp"])}
        for model, ref in refs.items():
            err = rel_err(values.get(model), ref)
            if not err <= tol:
                return f"{model} relative error {err:.3e}"
        return None
    if kind == "kohn":
        rows = re.findall(r"^\((.),(.)\)\s+(\S+)\s", out, re.M)
        if len(rows) != 4:
            return f"expected 4 roots, got {len(rows)}"
        for s1, s2, text in rows:
            q = complex(text)
            a, b = (1 if s1 == "+" else -1), (1 if s2 == "+" else -1)
            if abs(q * q + 2 * a * q + 2 * b * op["x"]) > 1e-9 * max(1.0, abs(q) ** 2):
                return f"root {text} does not solve branch ({s1},{s2})"
        return None
    if kind == "kohn_physical":
        ratios = [complex(v) for v in re.findall(r"/kF = (\S+)\)", out)]
        x = op["omega"] / (op["kf"] * op["vf"])
        sp, sm = cmath.sqrt(1 + 2 * x), cmath.sqrt(1 - 2 * x)
        want = [1 + sp, 1 + sm, -1 - sp, -1 - sm]
        if len(ratios) != 4 or any(abs(g - w) > 1e-9 * abs(w) for g, w in zip(ratios, want)):
            return f"k/kF = {ratios}, expected {want}"
        return None
    if kind == "verify":
        return None if "PASS" in out else "verify did not print PASS"
    if kind == "bad_config":
        return None if "config error" in r["stderr"] else "no config error reported"
    if kind == "eval_error":
        want = f"evaluation error: {op['expect_error']}:"
        return None if want in r["stderr"] else f"stderr lacks {want!r}: {r['stderr'][-200:]}"
    return f"unknown op kind {kind}"


def check_grid(records, tol: float) -> dict[int, str]:
    bad: dict[int, str] = {}
    for r in records:
        op, i = r["op"], r["i"]
        reason = _check_scan(r) if op["kind"] == "scan" else _check_sweep(op, r, tol)
        if reason:
            bad[i] = f"{op['kind']}: {reason}"
    return bad


def _check_scan(r) -> str | None:
    rows = r["rows"]
    if [row["y"] for row in rows] != list(r["op"]["y"]):
        return "rows do not follow y_list"
    slopes = [row["slope"] for row in rows]
    if not all(math.isfinite(s) and s > 0 for s in slopes):
        return f"non-finite or zero slope {slopes}"
    if any(b >= a for a, b in zip(slopes, slopes[1:])):
        return f"kink steepness does not fall with y: {slopes}"
    for row in rows:
        want = 1 if row["y"] == 0.0 else 0
        if len(row["skipped_q"]) != want or any(abs(q - 2.0) > 1e-9 for q in row["skipped_q"]):
            return f"y={row['y']}: skipped {row['skipped_q']}, expected {want} node at q=2"
    return None


def _check_sweep(op, r, tol: float) -> str | None:
    if r["n_q"] != op["q_steps"]:
        return f"{r['n_q']} q nodes, expected {op['q_steps']}"
    orig = sorted(n[0] for n in r["nudged"])
    if orig != sorted(op["expect_nudged"]) or any(new != old + 1e-6 for old, new in r["nudged"]):
        return f"nudged {r['nudged']}, expected {op['expect_nudged']}"
    if r["skipped"] != op["expect_skipped"]:
        return f"skipped {r['skipped']}, expected {op['expect_skipped']}"
    if len(r["bytes"]) != 2 or min(r["bytes"]) == 0:
        return "CSV or SVG not written"
    for iq, iy, q, eps in r["cells"]:
        y = op["y"][iy]
        if q == 0.0:
            if eps is not None:
                return "q = 0 cell was not skipped"
            continue
        if op["model"] == "bgk":
            ref = ref_bgk(op["x"], y, q, op["xp"])
        elif op["model"] == "mermin":
            ref = ref_mermin(op["x"], y, q, op["xp"])
        else:
            ref = ref_lindhard(op["x"], q, op["xp"])
        err = rel_err(eps, ref)
        if not err <= tol:
            return f"cell q={q!r} y={y!r}: relative error {err:.3e}"
    return None


def check_pointwise(records, mismatches, n_mismatch: int, tol: float) -> dict:
    bad: dict = {}
    for m in mismatches:
        bad[m["i"]] = f"expected {m['expected'] or 'a value'}, got {m['got'] or 'a value'}"
    for k in range(n_mismatch - len(mismatches)):
        bad[f"mismatch-{k}"] = "wrong error class (not listed)"
    for n, r in enumerate(records):
        p = r["point"]
        x, y, q, xp = p["x"], p["y"], p["q"], p["xp"]
        checks = [("bgk", r["a"], ref_bgk(x, y, q, xp)), ("mermin", r["m"], ref_mermin(x, y, q, xp)),
                  ("bgk_b", r["b"], ref_bgk_b(*r["b_point"]))]
        if y == 0.0:
            checks.append(("lindhard", r["l"], ref_lindhard(x, q, xp)))
        if x != 0.0:
            checks.append(("sigma", r["s"], ref_sigma(x, y, q)))
        for name, got, ref in checks:
            err = rel_err(got, ref)
            if not err <= tol:
                bad[f"sample-{n}"] = f"{name} at {(x, y, q, xp)}: relative error {err:.3e}"
                break
        for (s1, s2), root in r["roots"]:
            qr = complex(*root)
            if abs(qr * qr + 2 * s1 * qr + 2 * s2 * x) > 1e-12 * max(1.0, abs(qr) ** 2):
                bad[f"sample-{n}"] = f"Kohn root {qr} does not solve branch ({s1},{s2}) at x={x}"
    return bad


def check_oracle(records, tol: float) -> dict:
    r = records[0]
    if r["worst"] < tol:
        return {}
    return {f"op-{k}": f"oracle worst relative error {r['worst']:.3e} at {r['at']}"
            for k in range(max(1, r["n_over"]))}
