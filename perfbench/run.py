#!/usr/bin/env python3
"""qplasma benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {cli,grid,pointwise,oracle} \
        --seed N --seconds S --trace {0,1}

It benchmarks the ``src/qplasma`` of the checkout it sits in (never an
installed copy) and writes only under ``perfbench_out/`` there.  Steps:

1. ``setup_s``: SETUP_SAMPLES fresh interpreters, each timed from start to
   ready for the first op (for ``cli``: a whole ``python -c "import
   qplasma"``, which every CLI call pays) and scaled to reference speed
   by a fresh interpreter importing numpy, timed between them (metrics.py);
   the median is reported.
2. One worker process (worker.py) repeats the workload's pass of distinct
   ops for ``--seconds`` (at least metrics.MIN_PASSES times) and records
   latencies and sampled outputs.
3. The correctness gate (gate.py) checks those outputs, outside any timed
   region; every op that misses counts as failed.
4. Metric lines, provenance, then on the last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 150
REQUIRED = ["src/qplasma/__init__.py"] + [f"configs/fig{k}.cfg" for k in (1, 2, 3)] + \
    [f"out/fig{k}.{ext}" for k in (1, 2, 3) for ext in ("csv", "svg")]


def child_env(tmp: Path) -> dict:
    """The caller's environment without QPLASMA_THREADS (the program's own
    default pool is measured), with this checkout's src/ first on the path
    and temporary files kept in the run's directory."""
    env = dict(os.environ)
    env.pop("QPLASMA_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    return env


def time_to_ready(argv, env, cwd) -> float:
    """Wall time from process start to its 'ready' line (or its exit)."""
    t0 = perf_counter()
    with subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        t1 = perf_counter()
        rest = p.stdout.read()
        rc = p.wait(timeout=60)
    if rc != 0 or (line and line.strip() != "ready"):
        raise RuntimeError(f"{argv} failed (exit {rc}): {line}{rest}")
    return t1 - t0


def setup_seconds(workload, seed, env, tmp) -> tuple[list[float], list[float], list[float]]:
    """(scaled, unscaled, reference) set-up samples: a fresh interpreter is
    timed before, between and after them (metrics.process_reference_seconds),
    and each sample is scaled by the median of those."""
    if workload == "cli":
        argv = [sys.executable, "-c", "import qplasma"]
    else:
        argv = [sys.executable, str(HERE / "worker.py"), "--probe", "--workload", workload,
                "--seed", str(seed), "--root", str(ROOT), "--tmp", str(tmp)]
    refs, raw = [], []
    for _ in range(SETUP_SAMPLES):
        refs.append(metrics.process_reference_seconds())
        raw.append(time_to_ready(argv, env, tmp))
    refs.append(metrics.process_reference_seconds())
    ref = metrics.median(refs)
    return [t * metrics.PROCESS_REFERENCE_S / ref for t in raw], raw, refs


def import_tree(stderr: str) -> tuple[float, float]:
    """(qplasma cumulative, scipy subtree) seconds from -X importtime output.
    Lines come children first; nesting is two spaces per level."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    qplasma_s = scipy_s = 0.0
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(rows):  # parents before children
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy_s += cumulative
        if name == "qplasma":
            qplasma_s = cumulative
        ancestors.append(name)
    return qplasma_s, scipy_s


def cli_layers(env, tmp) -> dict:
    """Interpreter start, import cost and module count of a fresh process."""
    interp = [time_to_ready([sys.executable, "-c", "pass"], env, tmp) for _ in range(IMPORT_SAMPLES)]
    imports, scipys, counts = [], [], set()
    for _ in range(IMPORT_SAMPLES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c",
                            "import qplasma, sys; print(len(sys.modules))"],
                           env=env, cwd=tmp, capture_output=True, text=True, timeout=60, check=True)
        q, s = import_tree(p.stderr)
        imports.append(q)
        scipys.append(s)
        counts.add(int(p.stdout))
    return {"cli.interpreter_s": metrics.median(interp), "cli.import_s": metrics.median(imports),
            "cli.import_scipy_s": metrics.median(scipys), "cli.modules_loaded": max(counts)}


def provenance(seed, versions) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = p.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"), **versions}


def gate_failures(workload, res) -> dict:
    tol = res["tolerance"]
    if workload == "cli":
        return gate.check_cli(res["records"], ROOT / "out", tol)
    if workload == "grid":
        return gate.check_grid(res["records"], tol)
    if workload == "pointwise":
        return gate.check_pointwise(res["records"], res["mismatches"], res["n_mismatch"], tol)
    return gate.check_oracle(res["records"], tol)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [r for r in REQUIRED if not (ROOT / r).is_file()]
    if missing:
        print(f"error: {ROOT} is not a qplasma checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    out_dir = ROOT / "perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir))
    try:
        return run(args, out_dir, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, out_dir: Path, tmp: Path) -> int:
    env = child_env(tmp)
    metrics.pin_to_one_cpu()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup, setup_raw, setup_refs = setup_seconds(args.workload, args.seed, env, tmp)
    result_file = tmp / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(ROOT),
           "--tmp", str(tmp), "--result", str(result_file)]
    if args.trace:
        cmd += ["--trace-file", str(out_dir / f"trace-{tag}.json")]
    worker = subprocess.run(cmd, env=env, cwd=tmp, timeout=WORKER_TIMEOUT_S)
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    res = json.loads(result_file.read_text())
    summary = res["summary"]
    bad = gate_failures(args.workload, res)
    attempted = summary["ops"]
    failed = min(len(bad), attempted)
    for key, reason in list(bad.items())[:10]:
        print(f"FAIL op {key}: {reason}")
    if args.workload == "oracle" and res["records"][0]["n_declined"]:
        print(f"note: {res['records'][0]['n_declined']} ops raised ToleranceNotReached (quadrature declined), "
              f"e.g. {res['records'][0]['declined'][0]}")

    if args.trace:
        values = {**res["layers"], **cli_layers(env, tmp)}
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        if args.workload != "cli":
            print("note: cli.run_ms is 0 here: only the cli workload calls qplasma.cli.main")
        print(f"trace written to {out_dir / f'trace-{tag}.json'}")
    else:
        values = {
            "setup_s": metrics.median(setup),
            "ops_per_s": summary["ops_per_s"],
            "points_per_s": summary["points_per_s"],
            "op_p50_ms": 1e3 * summary["p50_s"],
            "op_tail_ms": 1e3 * summary["tail_s"],
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        units = dict(metrics.END_TO_END)
    out_metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in out_metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{summary['tail_pct']:g}, {summary['tail_beyond']} of {summary['ops']} samples beyond)"
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"{'fail_ratio':<44} {failed / attempted:>16.6g} -  ({failed} failed of {attempted} ops)")
    prov = provenance(args.seed, res["versions"])
    print(f"workload {args.workload}: {summary['passes']} passes of {summary['distinct_ops']} ops, "
          f"{summary['ops']} ops, {summary['points']} points in {summary['wall_s']:.3f} s; "
          f"reference loop median {1e3 * summary['reference_s']:.6g} ms over {summary['reference_samples']} samples; "
          f"unscaled ops_per_s {summary['raw_ops_per_s']:.6g} 1/s, op_p50_ms {1e3 * summary['raw_p50_s']:.6g} ms; "
          f"setup samples {setup}, unscaled {setup_raw}, process reference {setup_refs}")
    print("provenance: " + json.dumps(prov))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}
    (out_dir / f"result-{tag}.json").write_text(json.dumps({**line, "provenance": prov,
                                                            "setup_samples": setup, "setup_samples_unscaled": setup_raw,
                                                            "summary": summary}, indent=1))
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
