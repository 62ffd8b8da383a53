"""Command-line interface.

Subcommands:

* ``sweep``   -- evaluate eps over a q grid, write CSV and/or SVG
* ``compare`` -- BGK vs Mermin vs Lindhard at one point (text or JSON lines)
* ``kohn``    -- Kohn singularity report (dimensionless or physical)
* ``verify``  -- closed forms vs the independent Fermi-sphere quadrature

Exit codes: 0 success, 1 evaluation failure, 2 usage/config error (an
unreadable config file or an unwritable output included).

Each command imports what it runs inside its handler: a call pays no other command's imports.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from .errors import ConfigError, QplasmaError

__all__ = ["main"]

ORACLE_TOLERANCE = 1e-8
_SWEEP_KEYS = ("model", "x", "y", "q", "xp", "output", "format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplasma",
        description="Longitudinal dielectric function of a degenerate collisional quantum plasma",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="sweep eps over q and write CSV/SVG")
    p_sweep.add_argument("--config", help="key=value config file; flags override it")
    p_sweep.add_argument("--model", help="bgk, mermin or lindhard")
    p_sweep.add_argument("--x", type=float, help="omega/(k vF), held fixed over the sweep")
    p_sweep.add_argument("--y", help="comma-separated collision frequencies nu/(k vF)")
    p_sweep.add_argument("--q", help="q grid as min:max:steps")
    p_sweep.add_argument("--xp", type=float, help="coupling omega_p/(k vF)")
    p_sweep.add_argument("--output", help="output base path; .csv/.svg appended (a .csv or .svg it ends in is dropped first)")
    p_sweep.add_argument("--format", help="csv (the default), svg or both")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare the three models at one point")
    p_cmp.add_argument("--x", type=float, required=True)
    p_cmp.add_argument("--y", type=float, required=True)
    p_cmp.add_argument("--q", type=float, required=True)
    p_cmp.add_argument("--xp", type=float, required=True)
    p_cmp.add_argument("--json", action="store_true", help="emit JSON lines")
    p_cmp.set_defaults(func=_cmd_compare)

    p_kohn = sub.add_parser("kohn", help="locate Kohn singularities")
    p_kohn.add_argument("--x", type=float, help="omega/(kF vF)")
    p_kohn.add_argument("--omega", type=float, help="rad/s (with --kf and --vf)")
    p_kohn.add_argument("--kf", type=float, help="Fermi wavenumber, 1/m")
    p_kohn.add_argument("--vf", type=float, help="Fermi velocity, m/s")
    p_kohn.set_defaults(func=_cmd_kohn)

    p_ver = sub.add_parser("verify", help="closed forms vs quadrature oracle")
    p_ver.add_argument("--points", type=int, default=60)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", type=float, default=ORACLE_TOLERANCE)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import SweepConfig, load_config_file, parse_q_range, run_sweep

    values: dict[str, str] = {}
    if args.config:
        values = load_config_file(args.config)
        unknown = sorted(set(values) - set(_SWEEP_KEYS))
        if unknown:
            raise ConfigError(f"unknown sweep parameters in {args.config}: {', '.join(unknown)}")
    # command-line flags override the file
    for key in _SWEEP_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = str(flag)
    missing = [k for k in ("model", "x", "y", "q", "xp", "output") if k not in values]
    if missing:
        raise ConfigError(f"missing sweep parameters: {', '.join(missing)}")
    try:
        y = tuple(float(tok) for tok in values["y"].split(",") if tok.strip() != "")
        x = float(values["x"])
        xp = float(values["xp"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    q_min, q_max, q_steps = parse_q_range(values["q"])
    cfg = SweepConfig(  # checks every value, --model and --format included
        model=values["model"], x=x, y=y,
        q_min=q_min, q_max=q_max, q_steps=q_steps,
        xp=xp, output=values["output"], fmt=values.get("format", "csv"),
    )
    try:
        result = run_sweep(cfg)
    except OSError as exc:  # the output's directory or a file cannot be made or written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if result.skipped:
        print(
            f"skipped {len(result.skipped)} of {len(result.q_values) * len(cfg.y)} points "
            f"({100 * result.skipped_fraction:.2f}%):",
            file=sys.stderr,
        )
        for s in result.skipped[:20]:
            print(f"  q={s.q:g} y={s.y:g}: {s.reason}", file=sys.stderr)
    if result.csv_path:
        print(f"wrote {result.csv_path}")
    if result.svg_path:
        print(f"wrote {result.svg_path}")
    return 0 if result.skipped_fraction < 0.01 else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.q == 0.0:
        print("error: q must be nonzero", file=sys.stderr)
        return 2
    if args.y < 0.0 or args.xp < 0.0:
        print("error: y and xp must be >= 0", file=sys.stderr)
        return 2
    from .kernels import MODELS

    values = {}
    for name, row in MODELS.items():
        values[name] = row(args.x, (args.y,), [args.q], args.xp)[0][0]
        if isinstance(values[name], QplasmaError):
            raise values[name]
    pairs = list(itertools.combinations(values, 2))
    if args.json:
        import json

        for model, eps in values.items():
            print(json.dumps({
                "kind": "epsilon", "model": model,
                "x": args.x, "y": args.y, "q": args.q, "xp": args.xp,
                "re": eps.real, "im": eps.imag,
            }))
        for a, b in pairs:
            print(json.dumps({
                "kind": "difference", "pair": f"{a}-{b}",
                "abs": abs(values[a] - values[b]),
            }))
        return 0
    print(f"point: x={args.x:g} y={args.y:g} q={args.q:g} xp={args.xp:g}")
    print(f"{'model':<10} {'re(eps)':>24} {'im(eps)':>24}")
    for model, eps in values.items():
        print(f"{model:<10} {eps.real:>24.16e} {eps.imag:>24.16e}")
    for a, b in pairs:
        print(f"|{a}-{b}| = {abs(values[a] - values[b]):.6e}")
    return 0


def _fmt_root(value: complex) -> str:
    if value.imag == 0.0:
        return f"{value.real:.12g}"
    return f"{value.real:.12g}{value.imag:+.12g}j"


def _cmd_kohn(args: argparse.Namespace) -> int:
    from .kernels import _branch_label, _kohn_roots, kohn_wavenumbers_physical

    physical = args.omega is not None or args.kf is not None or args.vf is not None
    if physical:
        if None in (args.omega, args.kf, args.vf):
            print("error: physical mode needs --omega, --kf and --vf", file=sys.stderr)
            return 2
        if args.kf <= 0 or args.vf <= 0:
            print("error: --kf and --vf must be positive", file=sys.stderr)
            return 2
        if not all(math.isfinite(v) for v in (args.omega, args.kf, args.vf)):
            print("error: --omega, --kf and --vf must be finite", file=sys.stderr)
            return 2
        ks = kohn_wavenumbers_physical(args.omega, args.kf, args.vf)
        print(f"x = omega/(kF vF) = {args.omega / (args.kf * args.vf):.12g}")
        for i, k in enumerate(ks, 1):
            print(f"k{i} = {_fmt_root(k)} 1/m  (k{i}/kF = {_fmt_root(k / args.kf)})")
        if args.x is not None:
            print("note: --x ignored in physical mode", file=sys.stderr)
        return 0
    if args.x is None:
        print("error: give either --x or the physical triple --omega --kf --vf", file=sys.stderr)
        return 2
    _, roots = _kohn_roots(args.x)  # the KohnRoot fields as plain tuples
    print(f"Kohn singularities at x = {args.x:g}  (q^2 +- 2q +- 2x = 0)")
    print(f"{'branch':<8} {'q':>28} {'flags':<32} {'residual':>10}")
    for q, _, branch, degenerate, physical, principal, residual in roots:
        flags = []
        if degenerate:
            flags.append("degenerate")
        if not physical:
            flags.append("non-physical")
        if not principal:
            flags.append("alt-root")
        print(f"{_branch_label(branch):<8} {_fmt_root(q):>28} {','.join(flags) or '-':<32} {residual:>10.2e}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.points < 1:
        print("error: --points must be >= 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol > 0):
        print("error: --tol must be a positive finite number", file=sys.stderr)
        return 2
    from .quadrature import oracle_scan  # the one command that needs scipy

    worst, (x, y, q) = oracle_scan(n_points=args.points, seed=args.seed)
    print(f"closed form vs quadrature on {args.points} random points (seed {args.seed})")
    print(f"max relative error = {worst:.3e} at x={x:.4g} y={y:.4g} q={q:.4g}")
    ok = worst < args.tol
    print(f"{'PASS' if ok else 'FAIL'} (tolerance {args.tol:g})")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QplasmaError as exc:
        print(f"evaluation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
