#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline table on this checkout.

    PYTHONPATH=src python3 perfbench/baseline.py [--repeat 5]

Prints one line per table entry (median of ``--repeat`` timings) so the
numbers can be set beside the table; README.md records the comparison.
QPLASMA_THREADS is removed from the environment, so sweeps use the
library's default pool, as the table's "auto" column did.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def median_time(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    os.environ.pop("QPLASMA_THREADS", None)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    import random

    import qplasma
    from qplasma import DimensionlessPointA as P
    from qplasma import (epsilon_collisional_a, epsilon_lindhard, epsilon_mermin, oracle_scan,
                         singularity_broadening_scan)
    from qplasma.sweep import SweepConfig, run_sweep

    rng = random.Random(0)
    n = 20000
    pts = [(rng.uniform(-2, 2), rng.uniform(0.01, 3), rng.uniform(0.1, 4.5)) for _ in range(n)]
    built = [P(x, y, q, 1.0) for x, y, q in pts]
    rows = [
        ("epsilon_collisional_a per point, point prebuilt (us)",
         lambda: [epsilon_collisional_a(p) for p in built], 1e6 / n),
        ("epsilon_collisional_a per point, with DimensionlessPointA (us)",
         lambda: [epsilon_collisional_a(P(x, y, q, 1.0)) for x, y, q in pts], 1e6 / n),
        ("epsilon_mermin per point, point prebuilt (us)", lambda: [epsilon_mermin(p) for p in built], 1e6 / n),
        ("epsilon_lindhard per point (us)", lambda: [epsilon_lindhard(x, q, 1.0) for x, _, q in pts], 1e6 / n),
    ]
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench_out" if (ROOT / "perfbench_out").is_dir() else None) as tmp:
        fig1 = SweepConfig(model="bgk", x=0.0, y=(0.0, 0.005, 0.01), q_min=1.5, q_max=2.5, q_steps=501,
                           xp=1.0, output=str(Path(tmp) / "fig1"), fmt="both")
        rows += [
            ("fig1 sweep, CSV+SVG, default pool (ms)", lambda: run_sweep(fig1), 1e3),
            ("singularity_broadening_scan, fig1 window (ms)",
             lambda: singularity_broadening_scan(0.0, 1.0, (0.0, 0.005, 0.01), (1.5, 2.5)), 1e3),
            ("oracle_scan(200) (ms)", lambda: oracle_scan(200), 1e3),
        ]
        for label, fn, scale in rows:
            print(f"{label:<66} {median_time(fn, args.repeat) * scale:10.2f}")
        for label, argv in (
            ("python -m qplasma compare, wall (s)", ["compare", "--x", "0.3", "--y", "0.1", "--q", "1", "--xp", "1"]),
            ("python -m qplasma sweep fig1, wall (s)",
             ["sweep", "--config", str(ROOT / "configs/fig1.cfg"), "--output", str(Path(tmp) / "cli1")]),
            ("python -m qplasma verify, wall (s)", ["verify"]),
        ):
            t = median_time(lambda: subprocess.run([sys.executable, "-m", "qplasma", *argv], env=env, cwd=tmp,
                                                   capture_output=True, check=True), args.repeat)
            print(f"{label:<66} {t:10.3f}")
        t = median_time(lambda: subprocess.run([sys.executable, "-c", "pass"], env=env, check=True), args.repeat)
        print(f"{'bare python start, wall (s)':<66} {t:10.3f}")
        t = median_time(lambda: subprocess.run([sys.executable, "-c", "import qplasma"], env=env, check=True),
                        args.repeat)
        label = 'python -c "import qplasma", wall (s)'
        print(f"{label:<66} {t:10.3f}")
        big = SweepConfig(model="bgk", x=0.3, y=(0.1,), q_min=0.1, q_max=4.5, q_steps=300_000,
                          xp=1.0, output=str(Path(tmp) / "big"))
        t = median_time(lambda: run_sweep(big, write=False), 1)
        print(f"{'300k-point BGK sweep, write=False, default pool, one run (s)':<66} {t:10.2f}")
    print(f"qplasma from {qplasma.__file__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
