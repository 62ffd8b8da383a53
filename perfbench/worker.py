"""One workload run in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload grid --seed 1 --seconds 20 \
        --root . --tmp <dir> --result <file> [--trace 0|1] [--probe]

With ``--probe`` it imports qplasma, makes the workload's first call and
prints ``ready``: run.py times that from process start as ``setup_s``.
Otherwise it repeats the workload's pass of ops (gen.py) until
``--seconds`` have passed, at least metrics.MIN_PASSES times, timing each
op, and writes latency summaries, counts and the sampled outputs the
correctness gate needs to ``--result``.  With ``--trace 1`` the loop runs
under tracer.Tracer and the same passes are then replayed untraced to
measure what tracing cost.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import metrics
from tracer import Tracer

import qplasma
from qplasma import cli as C
from qplasma import dielectric as D
from qplasma import kohn as K
from qplasma import quadrature as Q
from qplasma import sweep as S
from qplasma import units as U

def cplx(z):
    return None if z is None else [z.real, z.imag]


class Runner:
    """prepare(op, i) -> argument of run (outside the timed region);
    run(prepared) -> result (timed); record(op, i, prepared, result)
    keeps what the correctness gate needs (outside the timed region)."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.records: list[dict] = []

    def prepare(self, op, i):
        return op

    def result_records(self) -> list:
        return self.records

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------- cli ----

def cli_argv(op: dict, slot: Path, root: Path) -> list[str]:
    kind = op["kind"]
    if kind == "sweep":
        return ["sweep", "--config", str(root / "configs" / f"fig{op['fig']}.cfg"),
                "--format", "both", "--output", str(slot / f"fig{op['fig']}")]
    if kind == "compare":
        argv = ["compare", "--x", repr(op["x"]), "--y", repr(op["y"]), "--q", repr(op["q"]),
                "--xp", repr(op["xp"])]
        return argv + ["--json"] if op["json"] else argv
    if kind == "kohn":
        return ["kohn", "--x", repr(op["x"])]
    if kind == "kohn_physical":
        return ["kohn", "--omega", repr(op["omega"]), "--kf", repr(op["kf"]), "--vf", repr(op["vf"])]
    if kind == "verify":
        return ["verify", "--points", str(op["points_arg"]), "--seed", str(op["seed"])]
    if kind == "bad_config":
        path = slot / "bad.cfg"
        path.write_text(op["text"])
        return ["sweep", "--config", str(path), "--output", str(slot / "bad")]
    if kind == "eval_error":
        return ["compare", "--x", repr(op["x"]), "--y", "0", "--q", repr(op["q"]), "--xp", repr(op["xp"])]
    raise ValueError(kind)


class CliRunner(Runner):
    """Each op is one `python -m qplasma` process, or with ``in_process``
    one call of qplasma.cli.main (traced runs)."""

    def __init__(self, tmp: Path, root: Path, in_process: bool):
        super().__init__(tmp)
        self.root, self.in_process = root, in_process

    def prepare(self, op, i):
        slot = self.tmp / f"cli{i}"
        slot.mkdir(parents=True, exist_ok=True)
        return cli_argv(op, slot, self.root), slot

    def run(self, prepared):
        argv, slot = prepared
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = C.main(argv)
            return rc, out.getvalue(), err.getvalue()
        p = subprocess.run([sys.executable, "-m", "qplasma", *argv], cwd=slot,
                           capture_output=True, text=True, timeout=120)
        return p.returncode, p.stdout, p.stderr

    def record(self, op, i, prepared, result):
        rc, out, err = result
        rec = {"i": i, "op": op, "rc": rc, "stdout": out[-4000:], "stderr": err[-4000:]}
        if op["kind"] == "sweep":
            base = prepared[1] / f"fig{op['fig']}"
            rec["files"] = [str(base.with_suffix(".csv")), str(base.with_suffix(".svg"))]
        self.records.append(rec)

    def peak_rss_kb(self) -> int:
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        return resource.getrusage(who).ru_maxrss


# --------------------------------------------------------------- grid ----

class GridRunner(Runner):
    def __init__(self, tmp: Path):
        super().__init__(tmp)
        self.out = tmp / "grid"
        self.out.mkdir(parents=True, exist_ok=True)

    def run(self, op):
        if op["kind"] == "scan":
            return K.singularity_broadening_scan(op["x"], op["xp"], op["y"], op["window"], op["n_points"])
        cfg = S.SweepConfig(model=op["model"], x=op["x"], y=tuple(op["y"]), q_min=op["q_min"],
                            q_max=op["q_max"], q_steps=op["q_steps"], xp=op["xp"],
                            output=str(self.out / f"slot{len(self.records) % 4}"), fmt="both")
        return S.run_sweep(cfg, write=True)

    def record(self, op, i, prepared, res):
        if op["kind"] == "scan":
            rows = [{"y": r.y, "slope": r.max_abs_deps_dq, "skipped_q": list(r.skipped_q)} for r in res]
            self.records.append({"i": i, "op": op, "rows": rows})
            return
        classes: dict[str, int] = {}
        for s in res.skipped:
            name = s.reason.split(":", 1)[0]
            classes[name] = classes.get(name, 0) + 1
        cells = [[iq, iy, res.q_values[iq], cplx(res.eps[iq][iy])] for iq, iy in op["sample"]]
        sizes = [os.path.getsize(p) for p in (res.csv_path, res.svg_path) if p is not None]
        self.records.append({"i": i, "op": op, "n_q": len(res.q_values), "nudged": [list(n) for n in res.nudged],
                             "skipped": classes, "cells": cells, "bytes": sizes})


# ---------------------------------------------------------- pointwise ----

def point_op(p):
    x, y, q, xp, kf, vf = p
    pt = D.DimensionlessPointA(x, y, q, xp)
    a = D.epsilon_collisional_a(pt).epsilon
    m = D.epsilon_mermin(pt).epsilon
    lind = D.epsilon_lindhard(x, q, xp).epsilon if y == 0.0 else None
    sigma = D.sigma_longitudinal(pt) if x != 0.0 else None
    # the SI map needs omega >= 0; eps(-x) = conj(eps(x)) covers x < 0
    pos = pt if x >= 0.0 else D.DimensionlessPointA(-x, y, q, xp)
    pb = U.to_convention_b(U.from_convention_a(pos, kf, vf))
    b = D.epsilon_collisional_b(pb).epsilon
    roots = K.kohn_roots_dimless(x)
    return a, m, lind, sigma, pb, b, roots


class PointwiseRunner(Runner):
    def __init__(self, tmp: Path):
        super().__init__(tmp)
        self.mismatches: list[dict] = []
        self.n_mismatch = 0
        self.sampled: set[int] = set()

    def prepare(self, p, i):
        return (p["x"], p["y"], p["q"], p["xp"], p["kf"], p["vf"])

    def run(self, args):
        try:
            return point_op(args)
        except qplasma.QplasmaError as exc:
            return exc

    def record(self, p, i, prepared, res):
        got = type(res).__name__ if isinstance(res, Exception) else None
        if got != p["expect"]:
            self.n_mismatch += 1
            if len(self.mismatches) < 20:
                self.mismatches.append({"i": i, "point": p, "expected": p["expect"], "got": got})
        if p.get("sample") and got is None and id(p) not in self.sampled:
            self.sampled.add(id(p))
            a, m, lind, sigma, pb, b, roots = res
            self.records.append({"point": p, "a": cplx(a), "m": cplx(m), "l": cplx(lind), "s": cplx(sigma),
                                 "b_point": [pb.x, pb.y, pb.q, pb.xp2], "b": cplx(b),
                                 "roots": [[list(r.branch), cplx(r.q)] for r in roots.roots]})


# ------------------------------------------------------------- oracle ----

class OracleRunner(Runner):
    """Point ops call epsilon_from_quadrature at its default tolerances, as
    a user would; scan ops call oracle_scan, as `qplasma verify` does.  A
    quadrature that cannot certify its tolerance raises the documented
    ToleranceNotReached; such ops are counted as declined."""

    def __init__(self, tmp: Path):
        super().__init__(tmp)
        self.worst = 0.0
        self.worst_at = None
        self.n_over = 0
        self.declined: list[list] = []

    def run(self, op):
        try:
            if op["kind"] == "scan":
                return Q.oracle_scan(n_points=op["n_points"], seed=op["seed"])
            closed = D.epsilon_collisional_a(D.DimensionlessPointA(op["x"], op["y"], op["q"], op["xp"])).epsilon
            quad = Q.epsilon_from_quadrature(op["x"], op["y"], op["q"], op["xp"])
        except qplasma.ToleranceNotReached as exc:
            return exc
        return abs(closed - quad) / abs(quad), (op["x"], op["y"], op["q"])

    def record(self, op, i, prepared, res):
        if isinstance(res, Exception):
            self.declined.append([i, op])
        else:
            rel, where = res
            if not rel < C.ORACLE_TOLERANCE:  # also catches nan
                self.n_over += 1
            if not rel <= self.worst:
                self.worst, self.worst_at = rel, list(where)

    def result_records(self):
        return [{"worst": self.worst, "at": self.worst_at, "n_over": self.n_over,
                 "declined": self.declined[:20], "n_declined": len(self.declined)}]


def make_runner(workload: str, root: Path, tmp: Path, in_process: bool) -> Runner:
    if workload == "cli":
        return CliRunner(tmp, root, in_process)
    return {"grid": GridRunner, "pointwise": PointwiseRunner, "oracle": OracleRunner}[workload](tmp)


def warm_up(workload: str, tmp: Path) -> None:
    """First call of the workload's entry points (not timed as an op)."""
    if workload == "grid":
        S.run_sweep(S.SweepConfig(model="bgk", x=0.3, y=(0.1,), q_min=0.5, q_max=1.5, q_steps=51,
                                  xp=1.0, output=str(tmp / "warm"), fmt="both"))
    elif workload == "pointwise":
        point_op((0.3, 0.1, 1.0, 1.0, 1e10, 1e10 * gen.HBAR_OVER_ME))
    elif workload == "oracle":
        Q.epsilon_from_quadrature(0.3, 0.1, 1.0, 1.0)


# --------------------------------------------------------------- loop ----

def run_passes(runner, ops, reference, seconds=None, n_passes=None, tracer=None):
    """Whole passes over ``ops``, at least metrics.MIN_PASSES, until
    ``seconds`` have passed (or exactly ``n_passes``).  Before an op, when
    its interval has passed since the last sample, the reference (timer,
    nominal seconds, interval; metrics.reference_for) is timed, outside the
    op's time.  Returns the wall time, the number of passes, each op's
    latencies and start times (one per pass) and the reference samples
    with their times."""
    timer, nominal, every = reference
    lat = [array("d") for _ in ops]
    at = [array("d") for _ in ops]
    cal_at, cal = array("d"), array("d")
    passes = n = 0
    t_start = next_cal = perf_counter()
    while True:
        for k, op in enumerate(ops):
            prepared = runner.prepare(op, n)
            if perf_counter() >= next_cal:
                cal_at.append(perf_counter())
                cal.append(timer())
                next_cal = perf_counter() + every
            if tracer is None:
                t0 = perf_counter()
                res = runner.run(prepared)
                t1 = perf_counter()
            else:
                t0 = perf_counter()
                with tracer.span("op", n):
                    res = runner.run(prepared)
                t1 = perf_counter()
            runner.record(op, n, prepared, res)
            lat[k].append(t1 - t0)
            at[k].append(t0)
            n += 1
        passes += 1
        if n_passes is not None:
            if passes >= n_passes:
                break
        elif passes >= metrics.MIN_PASSES and perf_counter() - t_start >= seconds:
            break
    cal_at.append(perf_counter())
    cal.append(timer())
    return {"wall": perf_counter() - t_start, "passes": passes, "lat": lat, "at": at,
            "cal_at": cal_at, "cal": cal, "nominal": nominal,
            "points": passes * sum(op["points"] for op in ops)}  # skipped cells included


def summarize(loop: dict, ops) -> dict:
    """Latencies at reference speed (metrics.at_reference_speed).  Throughput
    is the run's ops over the sum of their latencies.  Percentiles are over
    the ops, each op's latency the median of its repeats in the run and
    counted once per repeat: every op of a pass costs the same to within a
    few percent in that median, while single timings scatter with the host
    (a `pointwise` run's p90 moved by 0.11 of itself from seed to seed
    over single timings)."""
    scaled = [metrics.at_reference_speed(lat, at, loop["cal_at"], loop["cal"], loop["nominal"])
              for lat, at in zip(loop["lat"], loop["at"])]
    n = sum(len(v) for v in scaled)
    total = float(sum(v.sum() for v in scaled))
    per_op = np.sort(np.repeat([np.median(v) for v in scaled], [len(v) for v in scaled]))
    value, pct, beyond = metrics.tail(per_op)
    raw = np.concatenate([np.asarray(lat) for lat in loop["lat"]])
    return {"ops": n, "distinct_ops": len(ops), "passes": loop["passes"],
            "points": loop["points"], "wall_s": loop["wall"],
            "ops_per_s": n / total, "points_per_s": loop["points"] / total,
            "p50_s": float(np.median(per_op)), "tail_s": float(value), "tail_pct": pct, "tail_beyond": beyond,
            "raw_ops_per_s": len(raw) / float(raw.sum()), "raw_p50_s": float(np.median(raw)),
            "reference_s": float(np.median(loop["cal"])), "reference_samples": len(loop["cal"])}


# -------------------------------------------------------------- trace ----

def _sweep_hook(counters, args, kwargs, res):
    counters["sweep.points"] += len(res.q_values) * len(res.config.y)
    counters["sweep.nudged"] += len(res.nudged)
    counters["sweep.skipped"] += len(res.skipped)
    for p in (res.csv_path, res.svg_path):
        if p is not None:
            counters["sweep.output_bytes"] += os.path.getsize(p)


def _scan_hook(counters, args, kwargs, res):
    n_points = kwargs.get("n_points", args[4] if len(args) > 4 else 2001)
    counters["kohn.scan_points"] += len(res) * n_points


def make_tracer() -> Tracer:
    return Tracer(hooks={"sweep.run_sweep": _sweep_hook, "kohn.singularity_broadening_scan": _scan_hook})


def layer_metrics(tr: Tracer, loop: dict) -> dict:
    agg = tr.aggregates()
    by_fn: dict[str, list] = {}
    for (fn, _caller), (n, total, own) in agg.items():
        e = by_fn.setdefault(fn, [0, 0.0, 0.0])
        e[0] += n
        e[1] += total
        e[2] += own

    def layer(prefix, idx, exclude=()):
        return sum(v[idx] for k, v in by_fn.items() if k.startswith(prefix + ".") and k not in exclude)

    def fn(name, idx):
        return by_fn.get(name, [0, 0.0, 0.0])[idx]

    errs = tr.errors()
    m = {
        "kernels.calls": layer("kernels", 0),
        "kernels.calls_per_point": layer("kernels", 0) / loop["points"],
        "kernels.self_s": layer("kernels", 2),
        "dielectric.calls": layer("dielectric", 0),
        "dielectric.self_s": layer("dielectric", 2),
        "sweep.self_s": layer("sweep", 2, exclude=("sweep.SweepResult.csv_text",)),
        "sweep.csv_s": fn("sweep.SweepResult.csv_text", 1),
        "svg.line_plot_s": fn("svg.line_plot", 1),
        "kohn.scan_s": fn("kohn.singularity_broadening_scan", 1),
        "kohn.roots_self_s": fn("kohn.kohn_roots_dimless", 2) + fn("kohn.kohn_wavenumbers_physical", 2),
        "quadrature.calls": layer("quadrature", 0),
        "quadrature.self_s": layer("quadrature", 2),
        "units.calls": layer("units", 0),
        "units.self_s": layer("units", 2),
    }
    for name in ("sweep.points", "sweep.nudged", "sweep.skipped", "sweep.threads_started",
                 "sweep.output_bytes", "kohn.scan_points", "quadrature.scipy_quad_calls"):
        m[name] = tr.counters[name]
    for name, _, _ in metrics.PER_LAYER:
        if name.startswith("dielectric.errors."):
            m[name] = errs[("dielectric", name.rsplit(".", 1)[1])]
    return m


def write_trace(path: Path, tr: Tracer, workload: str, seed: int) -> None:
    agg = [[fn, caller, n, total, own] for (fn, caller), (n, total, own) in sorted(tr.aggregates().items())]
    with open(path, "w") as fh:
        json.dump({
            "workload": workload, "seed": seed,
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "op", "self_s"],
            "spans": tr.spans,
            "aggregate_fields": ["function", "caller", "count", "total_s", "self_s"],
            "aggregates": agg,
            "errors": [[layer, cls, n] for (layer, cls), n in sorted(tr.errors().items())],
            "counters": dict(tr.counters),
        }, fh)


# --------------------------------------------------------------- main ----

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    if Path(qplasma.__file__).resolve().parent.parent != src:
        print(f"qplasma imported from {qplasma.__file__}, not from {src}", file=sys.stderr)
        return 3
    metrics.pin_to_one_cpu()
    warm_up(args.workload, args.tmp)
    if args.probe:
        print("ready", flush=True)
        return 0

    ops = gen.pass_for(args.workload, args.seed)
    reference = metrics.reference_for(args.workload)
    runner = make_runner(args.workload, args.root, args.tmp, in_process=bool(args.trace))
    out = {"workload": args.workload, "seed": args.seed, "qplasma_file": qplasma.__file__,
           "versions": {"python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__,
                        "scipy": sys.modules["scipy"].__version__},
           "tolerance": C.ORACLE_TOLERANCE}
    if args.trace:
        import scipy.integrate
        tr = make_tracer()
        tr.install(count_calls=[(scipy.integrate, "quad", "quadrature.scipy_quad_calls"),
                                (threading.Thread, "start", "sweep.threads_started")])
        try:
            loop = run_passes(runner, ops, reference, seconds=args.seconds, tracer=tr)
        finally:
            tr.uninstall()
        out["layers"] = layer_metrics(tr, loop)
        replay = run_passes(make_runner(args.workload, args.root, args.tmp / "replay", in_process=True),
                            ops, reference, n_passes=loop["passes"])
        out["layers"]["trace.overhead_s"] = loop["wall"] - replay["wall"]
        out["layers"]["cli.run_ms"] = (1e3 * metrics.median([t for lat in replay["lat"] for t in lat])
                                       if args.workload == "cli" else 0.0)
        if args.trace_file:
            write_trace(args.trace_file, tr, args.workload, args.seed)
    else:
        loop = run_passes(runner, ops, reference, seconds=args.seconds)
    out["peak_rss_kb"] = runner.peak_rss_kb()  # before the summary's own arrays
    out["summary"] = summarize(loop, ops)
    out["records"] = runner.result_records()
    if isinstance(runner, PointwiseRunner):
        out["mismatches"], out["n_mismatch"] = runner.mismatches, runner.n_mismatch
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
