#!/usr/bin/env python3
"""Compare two qplasma source trees call by call on one seeded adversarial draw.

Usage: python scripts/compare_builds.py OLD_SRC NEW_SRC [--draws N] [--seed S]

OLD_SRC and NEW_SRC are directories holding the ``qplasma`` package (the
``src`` of a checkout).  An older revision can be unpacked with
``git archive REV | tar -x -C DIR`` and compared as ``DIR/src``.

Each tree is imported in its own subprocess (this script with ``--worker``),
which evaluates every public kernel and model, the Kohn roots, the unit
conversions and, rarely, the quadrature assembly on the same draw of
arguments: +-0, subnormals, 1e-300 to 1e-170, 1e154 to the largest double,
+-inf, nan, y = 0 and q on the branch points 2(1 +- x), mixed with ordinary
values.  Each call prints one line: the ``float.hex`` of every returned
value (so signed zeros count), sigma and the model tag, or the class and
message of the raised error.  The two streams are compared line by line.

Two kinds of difference are expected and counted per function, with one
example each: an OverflowError or ZeroDivisionError of the old tree that the
new tree raises as NonFiniteResult, and a call with a non-finite argument or
result in the old tree that the new tree rejects with NonFiniteResult.
Changed error-message texts are counted the same way.  Any other difference
is printed and the exit status is 1.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

INF, NAN = math.inf, math.nan
SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-170, -1e-170,
    0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0,
    1e154, -1e154, 1.5e154, 1e200, -1e200, 1e300, -1e300,
    1.7976931348623157e308, -1.7976931348623157e308, INF, -INF, NAN,
)
EXPECTED_OLD = ("OverflowError", "ZeroDivisionError")
EXPECTED_NEW = "NonFiniteResult"
_NUMBER = re.compile(r"[-+]?(?:\d[\d.]*(?:e[-+]?\d+)?|inf|nan)")


def _real(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.3:
        return rng.choice(SPECIAL)
    sign = rng.choice((1.0, -1.0))
    if r < 0.75:
        return sign * 10.0 ** rng.uniform(-6.0, 6.0)
    if r < 0.85:
        return rng.randint(-64, 64) / 16.0
    return sign * 10.0 ** rng.uniform(-323.0, 308.0)


def _nonneg(rng: random.Random) -> float:
    """Mostly >= 0 (y, xp, w, k, ...), with 5% raw draws to reach the
    documented ValueError checks."""
    if rng.random() < 0.3:
        return 0.0
    v = _real(rng)
    return v if rng.random() < 0.05 else abs(v)


def _q(rng: random.Random, x: float) -> float:
    if rng.random() < 0.2:
        return rng.choice((2.0, -2.0)) * (1.0 + rng.choice((1.0, -1.0)) * x)
    return _real(rng)


def _args(name: str, rng: random.Random) -> tuple:
    x = _real(rng)
    if name in ("clog_ratio", "g0_a"):
        return x, _nonneg(rng)
    if name in ("g_a", "g_b"):
        return x, _nonneg(rng), _q(rng, x), rng.choice((1, -1))
    if name == "g0_b":
        return x, _nonneg(rng), _q(rng, x)
    if name == "epsilon_lindhard":
        return x, _q(rng, x), _nonneg(rng)
    if name == "epsilon_static_mermin":
        return _nonneg(rng), _nonneg(rng)
    if name == "epsilon_static_collisional":
        return _nonneg(rng), _nonneg(rng), _nonneg(rng)
    if name == "epsilon_classical_limit":
        return x, _nonneg(rng), _nonneg(rng)
    if name == "kohn_roots_dimless":
        return (x,)
    if name == "kohn_wavenumbers_physical":
        return x, _nonneg(rng), _nonneg(rng)
    if name in ("to_convention_a", "to_convention_b"):
        return abs(x), _nonneg(rng), _nonneg(rng), _nonneg(rng), _nonneg(rng)
    # the (x, y, q, coupling) models and the quadrature assembly
    return x, _nonneg(rng), _q(rng, x), _nonneg(rng)


def _physical(u, omega, nu, k, vF, omega_p):
    return u.PhysicalParams(omega, nu, k, vF, vF / (u.HBAR / u.M_E), omega_p)


def call_table():
    """name -> (f(*args), weight).  Every f returns finite values or raises."""
    from qplasma import dielectric as d
    from qplasma import kernels as k
    from qplasma import kohn
    from qplasma import quadrature as quad
    from qplasma import units as u

    pa = d.DimensionlessPointA
    return {
        "clog_ratio": (lambda x, y: k.clog_ratio(complex(x, y)), 20),
        "g0_a": (lambda x, y: k.g0_a(complex(x, y)), 20),
        "g_a": (lambda x, y, q, s: k.g_a(complex(x, y), q, s), 20),
        "g0_b": (lambda x, y, q: k.g0_b(complex(x, y), q), 20),
        "g_b": (lambda x, y, q, s: k.g_b(complex(x, y), q, s), 20),
        "epsilon_collisional_a": (lambda *a: d.epsilon_collisional_a(pa(*a)), 20),
        "epsilon_collisional_b": (
            lambda *a: d.epsilon_collisional_b(d.DimensionlessPointB(*a)), 20),
        "epsilon_lindhard": (d.epsilon_lindhard, 20),
        "epsilon_mermin": (lambda *a: d.epsilon_mermin(pa(*a)), 20),
        "sigma_longitudinal": (lambda *a: d.sigma_longitudinal(pa(*a)), 20),
        "epsilon_static_mermin": (d.epsilon_static_mermin, 20),
        "epsilon_static_collisional": (d.epsilon_static_collisional, 20),
        "epsilon_classical_limit": (
            lambda x, y, xp: d.epsilon_classical_limit(complex(x, y), xp), 20),
        "kohn_roots_dimless": (kohn.kohn_roots_dimless, 10),
        "kohn_wavenumbers_physical": (kohn.kohn_wavenumbers_physical, 10),
        "to_convention_a": (lambda *a: u.to_convention_a(_physical(u, *a)), 10),
        "to_convention_b": (lambda *a: u.to_convention_b(_physical(u, *a)), 10),
        "epsilon_from_quadrature": (quad.epsilon_from_quadrature, 1),
    }


def draws(seed: int, n: int, table):
    """The seeded sequence of (name, args), weighted round robin over ``table``."""
    rng = random.Random(seed)
    schedule = [name for name, (_, weight) in table.items() for _ in range(weight)]
    for i in range(n):
        name = schedule[i % len(schedule)]
        yield name, _args(name, rng)


def flatten(value) -> list:
    """Every number, flag and tag of a returned value, in a fixed order."""
    if isinstance(value, (complex, float, int, bool, str)) or value is None:
        if isinstance(value, complex):
            return [value.real, value.imag]
        return [value]
    if isinstance(value, (tuple, list)):
        return [v for item in value for v in flatten(item)]
    if hasattr(value, "__dataclass_fields__"):
        return [v for f in value.__dataclass_fields__ for v in flatten(getattr(value, f))]
    if hasattr(value, "value"):  # an enum member such as the model tag
        return [value.value]
    raise TypeError(f"cannot flatten {type(value).__name__}")


def _token(v) -> str:
    return v.hex() if isinstance(v, float) else repr(v)


def _non_finite(tokens: str) -> bool:
    return any(t.lstrip("-") in ("inf", "nan") for t in tokens.split())


def outcome(fn, args) -> str:
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - every class is recorded
        return f"! {type(exc).__name__}: " + str(exc).replace("\n", "\\n")
    return "= " + " ".join(_token(v) for v in flatten(value))


def _worker(seed: int, n: int) -> None:
    import qplasma

    table = call_table()
    out = sys.stdout
    out.write(f"# {Path(qplasma.__file__).resolve().parent}\n")
    for name, args in draws(seed, n, table):
        out.write(f"{name}\t{' '.join(map(_token, args))}\t{outcome(table[name][0], args)}\n")


def _spawn(src: Path, seed: int, n: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seed", str(seed), "--draws", str(n)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, bufsize=1 << 20)


def compare(old_src: Path, new_src: Path, seed: int, n: int) -> int:
    procs = [_spawn(src, seed, n) for src in (old_src, new_src)]
    old, new = (p.stdout for p in procs)
    bad = 0
    for src, header in ((old_src, old.readline()), (new_src, new.readline())):
        if header.strip() != f"# {(src / 'qplasma').resolve()}":
            print(f"worker imported the wrong tree: {header.strip()} (wanted {src})")
            bad += 1
    calls, expected, rejected, messages, examples = Counter(), Counter(), Counter(), Counter(), {}
    for line_old, line_new in zip(old, new):
        name, args, res_old = line_old.rstrip("\n").split("\t", 2)
        *call_new, res_new = line_new.rstrip("\n").split("\t", 2)
        calls[name] += 1
        if res_old == res_new and call_new == [name, args]:
            continue
        verdict = "unexpected difference" if call_new == [name, args] else "draws out of step"
        cls_old, cls_new = res_old.split(":", 1)[0], res_new.split(":", 1)[0]
        same_class = cls_old == cls_new and res_old.startswith("!")
        now_typed = cls_old[2:] in EXPECTED_OLD and cls_new == f"! {EXPECTED_NEW}"
        bad_result = res_old.startswith("=") and _non_finite(res_old)
        if (verdict == "unexpected difference" and cls_new == f"! {EXPECTED_NEW}"
                and cls_old != cls_new and (bad_result or _non_finite(args))):
            key = name, "result" if bad_result else "argument", ""
            rejected[key] += 1
            examples.setdefault(key, (res_old[2:], res_new[2:]))
            continue
        if verdict == "unexpected difference" and (same_class or now_typed):
            key = name, _NUMBER.sub("#", res_old[2:]), _NUMBER.sub("#", res_new[2:])
            (messages if same_class else expected)[key] += 1
            examples.setdefault(key, (res_old[2:], res_new[2:]))
            continue
        bad += 1
        if bad <= 20:
            print(f"{verdict}: {name}({args})\n  old {res_old}\n  new {res_new}")
    for p in procs:
        p.stdout.close()  # a worker that is still writing stops instead of blocking
        if p.wait() != 0:
            print(f"worker exited with status {p.returncode}")
            bad += 1
    total = sum(calls.values())
    if total != n:
        print(f"compared {total} of {n} calls")
        bad += 1
    print(f"{total} calls over {len(calls)} functions, seed {seed}")
    for kind, counts in (("error class", expected), ("message", messages)):
        for key, count in sorted(counts.items()):
            was, now = examples[key]
            print(f"  {key[0]}: {count} x {kind} changed, e.g.\n    old: {was}\n    new: {now}")
    for key, count in sorted(rejected.items()):
        was, now = examples[key]
        print(f"  {key[0]}: {count} x non-finite {key[1]} now raises {EXPECTED_NEW}, e.g.\n"
              f"    old: {was}\n    new: {now}")
    print(f"{bad} unexpected difference(s)" if bad else "no unexpected difference")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?", type=Path)
    parser.add_argument("new_src", nargs="?", type=Path)
    parser.add_argument("--draws", type=int, default=600_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.seed, args.draws)
        return 0
    if args.old_src is None or args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    return compare(args.old_src, args.new_src, args.seed, args.draws)


if __name__ == "__main__":
    raise SystemExit(main())
