#!/usr/bin/env python3
"""Compare two qplasma source trees call by call on one seeded adversarial draw.

Usage: python scripts/compare_builds.py OLD_SRC NEW_SRC [--draws N] [--seed S] [--examples N]
       python scripts/compare_builds.py --against REV [--draws N] [--seed S] [--examples N]

OLD_SRC and NEW_SRC are directories holding the ``qplasma`` package (the
``src`` of a checkout).  ``--against REV`` unpacks the ``src`` of git
revision REV (``git archive``) into a temporary directory and compares it,
as OLD_SRC, with the ``src`` of the checkout this script lives in,
uncommitted edits included: ``--against HEAD`` checks a working tree
against its last commit, ``--against HEAD~1`` a commit against its parent.

Each tree is imported in its own subprocess (this script with ``--worker``),
which evaluates every public kernel and model, the Kohn roots and branch
points, the unit conversions, the density helpers (``fermi_quantities``,
``plasma_frequency`` and ``PhysicalParams.from_density``, flattened to the
SI fields every revision has), the broadening scan and, rarely, the
quadrature oracle (the Fermi-sphere integral g0, the quadrature assembly,
and ``oracle_scan`` of one to three points) on the same draw of arguments:
+-0, subnormals, 1e-300 to 1e-170, 1e154 to the largest double, +-inf, nan,
y = 0 and q on the branch points 2(1 +- x), mixed with ordinary values.
A scan has one to three rows on a short grid (3 to 49 nodes) of the
windows the sweeps below use.  It then
evaluates N // 30 rows (20000 for the default N = 600000) through the
model table, ``sweep.MODELS[model](x, (y,), qs, xp)[0]``, every model in
turn, on short q grids that hold q = +-0, the branch points 2(1 +- x) and
+-2 and adversarial values, at y = +-0 and adversarial y.  Last come
N // 600 whole sweeps (1000 by default), ``sweep.run_sweep(write=False)``,
of one to four rows each: every model, x = +-0 and adversarial x, q windows
through 0, +-2 and the branch points, windows denser than the 1e-9 node
tolerance around one of them, and couplings whose square overflows.  They
reach what rows alone do not: the grid's nudges and the rows of one sweep
that share work.  Each call prints one line:
the ``float.hex`` of every returned value (so signed zeros count), sigma,
the model tag and the class name of every dataclass value (per row node:
the value, or the class and message of the node's QplasmaError; per scan:
each row's y, slope and skipped q; per sweep: the result's config, grid,
node-major values ``eps[iq][iy]``, skips, nudges and paths, however the
result stores them, and a hash of its CSV and SVG text), or the class and
message of the raised error.  The two streams are compared line by line.

Some differences are expected, and are counted per function and kind,
with one example each, printed with its arguments: an OverflowError or
ZeroDivisionError of the old tree that the new tree raises as
NonFiniteResult; and a call that the new tree rejects with NonFiniteResult
where the old tree returned a non-finite result or got a non-finite
argument.  A call of a function named with
``--finite-rejects NAME`` that returned a finite value of finite arguments
and now raises NonFiniteResult (a quantity derived from them that leaves
double range, such as a square that overflows) is expected too; of any
other function it is not, so a finite value that a regression turns into
an overflow still fails.  Changed error-message texts are counted the same
way.  Any other difference
is unexpected: the first 20 are printed (``--examples N``: the first N,
0 for all), a changed row with the q, the old and the new outcome of each
node that changed; all of them are counted per function and (old outcome ->
new outcome), an outcome being "value" or the
class of the raised error, and the exit status is 1.  For the unexpected
value -> value differences, the summary also gives per function and per
token of the printed result (its fields, counted from 0: a quoted text,
such as a row node's error, is one token, any other field is whitespace-
separated) how many calls changed that token and the largest change: of a
finite float, the largest |new - old| and |new - old|/|old|; a zero that
only changed sign, a float that is or turns inf or nan, a changed text and
any other token, each as a count.  A function none of whose floats changed
is marked "no float changed".  So a change that is meant to move values
within a bound quotes the bound it met, and one that is meant to change
only texts shows that it did.  The summary also lists both trees'
per-module and total line counts of ``qplasma``: all lines, as ``wc -l``
counts them, and code lines, without blank lines, comment lines and
docstrings.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import math
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
_TOKEN = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"|\S+")  # a repr'd str, quotes and all, or a field


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


def _row_args(rng: random.Random) -> tuple:
    """(x, y, xp, *qs) of one row draw."""
    x = rng.choice((0.0, -0.0, rng.randint(-12, 12) / 8.0, _real(rng)))
    y = rng.choice((0.0, -0.0, _nonneg(rng)))
    if rng.random() < 0.5:  # dyadic grid through 0 and, for dyadic x, the branch points
        h = 2.0 ** -rng.randint(0, 3)
        qs = [i * h for i in range(-rng.randint(0, 2), rng.randint(1, 24))]
    else:
        qs = [_q(rng, x) for _ in range(rng.randint(1, 8))]
    qs += rng.sample((0.0, -0.0, 2.0, -2.0, *(2.0 * (1.0 + s * x) for s in (1.0, -1.0))), rng.randint(0, 3))
    return (x, y, _nonneg(rng), *qs)


def _grid_x(rng: random.Random) -> float:
    """x of a sweep or scan draw: +-0, dyadic or adversarial."""
    return rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.choice((rng.randint(-12, 12) / 8.0, _real(rng)))


def _window(rng: random.Random, x: float) -> tuple[float, float, int]:
    """(q_min, q_max, steps >= 2) of a q grid around the poles of x."""
    pole = rng.choice((0.0, 2.0, -2.0, *(2.0 * (1.0 + s * x) for s in (1.0, -1.0))))
    r = rng.random()
    if r < 0.4:  # dyadic nodes through 0 and, for dyadic x, the poles
        h = 2.0 ** -rng.randint(0, 3)
        lo, hi = rng.randint(1, 24), rng.randint(1, 24)
        return -lo * h, hi * h, lo + hi + 1
    if r < 0.6:  # nodes 1e-10 apart around one pole, many within its 1e-9
        lo, hi = rng.randint(0, 20), rng.randint(1, 20)
        return pole - lo * 1e-10, pole + hi * 1e-10, lo + hi + 1
    q_min = rng.choice((pole, _real(rng)))
    return q_min, q_min + abs(_real(rng)), rng.randint(2, 40)


def _sweep_args(rng: random.Random, model: str) -> tuple:
    """(model, x, xp, q_min, q_max, q_steps, *ys) of one sweep draw."""
    x = _grid_x(rng)
    if model == "lindhard":
        ys = rng.choice(([0.0], [-0.0], [0.0, -0.0]))
    else:  # distinct column labels, mostly y > 0
        ys = list({format(y, "g"): y for y in (
            rng.choice((0.0, -0.0, _nonneg(rng))) if rng.random() < 0.3 else 10.0 ** rng.uniform(-3.0, 1.0)
            for _ in range(rng.randint(1, 4))
        )}.values())
    xp = rng.choice((1.0, 0.0, 1e200, abs(_real(rng))))
    return (model, x, xp, *_window(rng, x), *ys)


def _scan_args(rng: random.Random) -> tuple:
    """(x, xp, q_min, q_max, n_points, *ys) of one broadening scan."""
    x = _grid_x(rng)
    ys = [rng.choice((0.0, -0.0, _nonneg(rng), 10.0 ** rng.uniform(-3.0, 1.0))) for _ in range(rng.randint(1, 3))]
    xp = rng.choice((1.0, 0.0, 1e200, _nonneg(rng)))
    q_min, q_max, steps = _window(rng, x)
    return (x, xp, q_min, q_max, max(steps, 3), *ys)


def _args(name: str, rng: random.Random) -> tuple:
    if name.startswith("row_"):
        return _row_args(rng)
    if name.startswith("sweep_"):
        return _sweep_args(rng, name[len("sweep_"):])
    x = _real(rng)
    if name in ("clog_ratio", "g0_a", "g0_quadrature"):
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
    if name == "oracle_scan":
        return rng.randint(1, 3), rng.randrange(2 ** 31)
    if name == "singularity_broadening_scan":
        return _scan_args(rng)
    if name in ("kohn_roots_dimless", "branch_points_q"):
        return (x,)
    if name == "kohn_wavenumbers_physical":
        return x, _nonneg(rng), _nonneg(rng)
    if name in ("to_convention_a", "to_convention_b"):
        return abs(x), _nonneg(rng), _nonneg(rng), _nonneg(rng), _nonneg(rng)
    if name == "from_convention_a":
        return x, _nonneg(rng), _q(rng, x), _nonneg(rng), _nonneg(rng), _nonneg(rng)
    if name in ("fermi_quantities", "plasma_frequency"):
        return (x,)
    if name == "from_density":
        return abs(x), _nonneg(rng), _nonneg(rng), _real(rng)
    # the (x, y, q, coupling) models and the quadrature assembly
    return x, _nonneg(rng), _q(rng, x), _nonneg(rng)


def _physical(u, omega, nu, k, vF, omega_p):
    return u.PhysicalParams(omega, nu, k, vF, vF / (u.HBAR / u.M_E), omega_p)


def _si_fields(p) -> tuple:
    """The SI fields that PhysicalParams has in every revision."""
    return p.omega, p.nu, p.k, p.vF, p.kF, p.omega_p, p.N


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
        "branch_points_q": (k.branch_points_q, 10),
        "kohn_wavenumbers_physical": (kohn.kohn_wavenumbers_physical, 10),
        "singularity_broadening_scan": (
            lambda x, xp, q_min, q_max, n, *ys: kohn.singularity_broadening_scan(x, xp, ys, (q_min, q_max), n), 1),
        "to_convention_a": (lambda *a: u.to_convention_a(_physical(u, *a)), 10),
        "to_convention_b": (lambda *a: u.to_convention_b(_physical(u, *a)), 10),
        "from_convention_a": (
            lambda x, y, q, xp, kF, vF: _si_fields(u.from_convention_a(pa(x, y, q, xp), kF, vF)), 10),
        "fermi_quantities": (u.fermi_quantities, 10),
        "plasma_frequency": (u.plasma_frequency, 10),
        "from_density": (lambda *a: _si_fields(u.PhysicalParams.from_density(*a)), 10),
        "epsilon_from_quadrature": (quad.epsilon_from_quadrature, 1),
        "g0_quadrature": (quad.g0_quadrature, 1),
        "oracle_scan": (quad.oracle_scan, 1),
    }


def row_table():
    """name -> (f(x, y, xp, *qs), weight): one sweep row per model."""
    from qplasma import sweep

    def row(model):
        def evaluate(x, y, xp, *qs):
            return sweep.MODELS[model](x, (y,), qs, xp)[0]
        return evaluate

    return {f"row_{model}": (row(model), 1) for model in ("bgk", "mermin", "lindhard")}


def sweep_table():
    """name -> (f(model, x, xp, q_min, q_max, q_steps, *ys), weight): one whole
    sweep, its result's public attributes and the sha256 of its CSV and SVG
    text."""
    from qplasma import sweep

    def evaluate(model, x, xp, q_min, q_max, q_steps, *ys):
        cfg = sweep.SweepConfig(model, x, tuple(ys), q_min, q_max, q_steps, xp, "unused")
        return sweep_projection(sweep.run_sweep(cfg, write=False))

    return {f"sweep_{model}": (evaluate, weight) for model, weight in (("bgk", 1), ("mermin", 2), ("lindhard", 1))}


def sweep_projection(result) -> tuple:
    """A SweepResult as the attributes every revision has, in one order: the
    values node-major (``eps[iq][iy]``), whichever layout the result stores,
    then the sha256 of its CSV and SVG text."""
    texts = (result.csv_text(), result.svg_text())
    return (type(result).__name__, result.config, result.q_values, result.eps, result.skipped, result.nudged,
            result.csv_path, result.svg_path, *(hashlib.sha256(t.encode()).hexdigest() for t in texts))


def draws(seed: int, n: int, table):
    """The seeded sequence of (name, args), weighted round robin over ``table``."""
    rng = random.Random(seed)
    schedule = [name for name, (_, weight) in table.items() for _ in range(weight)]
    for i in range(n):
        name = schedule[i % len(schedule)]
        yield name, _args(name, rng)


def flatten(value) -> list:
    """Every number, flag and tag of a returned value, in a fixed order; a
    dataclass value leads with its class name, so a result type swapped for
    a tuple-like one does not flatten the same."""
    if isinstance(value, (complex, float, int, bool, str)) or value is None:
        if isinstance(value, complex):
            return [value.real, value.imag]
        return [value]
    if isinstance(value, (tuple, list)):
        return [v for item in value for v in flatten(item)]
    if isinstance(value, Exception):  # a row node's QplasmaError
        return [f"{type(value).__name__}: {value}"]
    if hasattr(value, "__dataclass_fields__"):
        return [type(value).__name__, *(v for f in value.__dataclass_fields__ for v in flatten(getattr(value, f)))]
    if hasattr(value, "value"):  # an enum member such as the model tag
        return [value.value]
    raise TypeError(f"cannot flatten {type(value).__name__}")


def _token(v) -> str:
    return v.hex() if isinstance(v, float) else repr(v)


def _tokens(text: str) -> list[str]:
    """The fields of a printed result or argument list; a quoted text is one."""
    return _TOKEN.findall(text)


def _non_finite(text: str) -> bool:
    return any(t.lstrip("-") in ("inf", "nan") for t in _tokens(text))


def _rejected(args: str, res_old: str, res_new: str) -> str | None:
    """The kind of call that the new tree rejects with NonFiniteResult where
    the old tree's outcome was another -- "non-finite result", "non-finite
    argument" or "finite argument and result" -- or None."""
    if not res_new.startswith(f"! {EXPECTED_NEW}:") or res_old.startswith(f"! {EXPECTED_NEW}:"):
        return None
    returned = res_old.startswith("=")
    if returned and _non_finite(res_old):
        return "non-finite result"
    if _non_finite(args):
        return "non-finite argument"
    return "finite argument and result" if returned else None


def _outcome_class(result: str) -> str:
    """"value" for a returned value, else the class name of the raised error."""
    return "value" if result.startswith("=") else result[2:].split(":", 1)[0]


def _float(token: str) -> float | None:
    """The float of a float.hex token, or None for any other token."""
    return float.fromhex(token) if token.lstrip("-").startswith("0x") or token.lstrip("-") in ("inf", "nan") else None


def _nodes(result: str) -> list[str]:
    """A row's printed outcome per node: a value's two floats or an error's
    quoted text; [] for a row that raised."""
    tokens = _tokens(result[2:]) if result.startswith("=") else []
    nodes = []
    while tokens:
        width = 1 if tokens[0][0] in "'\"" else 2
        nodes.append(" ".join(tokens[:width]))
        tokens = tokens[width:]
    return nodes


def _changed_nodes(args: str, res_old: str, res_new: str) -> list[str]:
    """One line per node of a row draw (args x y xp *qs) whose outcome
    changed: its q, then the old and the new outcome; none where the row
    raised in either tree."""
    qs = _tokens(args)[3:]
    old, new = _nodes(res_old), _nodes(res_new)
    if not len(old) == len(new) == len(qs):
        return []
    return [f"    q = {float.fromhex(q)!r}: {a} -> {b}" for q, a, b in zip(qs, old, new) if a != b]


_SHORT = 8  # a result of at most this many tokens has its changes listed token by token


class ValueChanges:
    """The token-by-token changes of one function's value -> value differences."""

    KINDS = ("only a zero's sign", "non-finite", "text", "other")

    def __init__(self) -> None:
        self.calls = self.reshaped = 0
        # token index (None: any token of a result longer than _SHORT) ->
        # [changed, largest |new - old|, largest |new - old|/|old|, then a count per KINDS]
        self.tokens: dict[int | None, list] = {}

    def add(self, res_old: str, res_new: str) -> None:
        self.calls += 1
        old, new = _tokens(res_old[2:]), _tokens(res_new[2:])
        if len(old) != len(new):
            self.reshaped += 1
            return
        for i, (a, b) in enumerate(zip(old, new)):
            if a == b:
                continue
            token = self.tokens.setdefault(i if len(old) <= _SHORT else None, [0, 0.0, 0.0, 0, 0, 0, 0])
            token[0] += 1
            u, v = _float(a), _float(b)
            if u is None or v is None:
                token[5 if a[0] in "'\"" or b[0] in "'\"" else 6] += 1
            elif not (math.isfinite(u) and math.isfinite(v)):
                token[4] += 1
            elif u == v:  # +0.0 and -0.0
                token[3] += 1
            else:
                token[1] = max(token[1], abs(v - u))
                token[2] = max(token[2], abs(v - u) / abs(u) if u else math.inf)

    def lines(self) -> list[str]:
        out = [f"    {self.reshaped} x a result with another number of tokens"] if self.reshaped else []
        if not self.reshaped and all(counts[0] == counts[5] for counts in self.tokens.values()):
            out.append("    no float changed")
        by_token = sorted(self.tokens.items(), key=lambda t: (t[0] is None, t[0] or 0))
        for i, (changed, change, relative, *kinds) in by_token:
            parts = [f"largest change {change:.3g}, relative {relative:.3g}"] if changed > sum(kinds) else []
            parts += [f"{n} x {kind}" for n, kind in zip(kinds, self.KINDS) if n]
            where = f"token {i}" if i is not None else f"tokens of results longer than {_SHORT}"
            out.append(f"    {where}: {changed} x, " + ", ".join(parts))
        return out


def outcome(fn, args) -> str:
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - every class is recorded
        return f"! {type(exc).__name__}: " + str(exc).replace("\n", "\\n")
    return "= " + " ".join(_token(v) for v in flatten(value))


def _rows(n: int) -> int:
    """The number of row draws that go with n call draws: a row holds ~10 nodes."""
    return n // 30


def _sweeps(n: int) -> int:
    """The number of sweep draws that go with n call draws: a sweep holds ~50 nodes."""
    return n // 600


def _worker(seed: int, n: int) -> None:
    import qplasma

    out = sys.stdout
    out.write(f"# {Path(qplasma.__file__).resolve().parent}\n")
    for table, count in ((call_table(), n), (row_table(), _rows(n)), (sweep_table(), _sweeps(n))):
        for name, args in draws(seed, count, table):
            out.write(f"{name}\t{' '.join(map(_token, args))}\t{outcome(table[name][0], args)}\n")


def _spawn(src: Path, seed: int, n: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seed", str(seed), "--draws", str(n)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, bufsize=1 << 20)


def _code_lines(text: str) -> int:
    """Lines of ``text`` that are not blank, not a comment alone and not part
    of a module, class or function docstring (found with ``ast``)."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))


def _print_line_counts(old_src: Path, new_src: Path) -> None:
    """Print each module's and the total line count (as ``wc -l`` counts) and
    code-line count (``_code_lines``) of both trees' ``qplasma``."""
    old, new = ({f.name: (f.read_bytes().count(b"\n"), _code_lines(f.read_text(encoding="utf-8")))
                 for f in (src / "qplasma").glob("*.py")} for src in (old_src, new_src))
    rows = [(name, old.get(name, (0, 0)), new.get(name, (0, 0))) for name in sorted(old.keys() | new.keys())]
    rows.append(("total", *(tuple(map(sum, zip(*counts.values()))) for counts in (old, new))))
    print("qplasma lines (wc -l) and code lines, old -> new:")
    for name, was, now in rows:
        print(f"  {name:<16}" + "   ".join(f"{w:>6} -> {n:>6} {n - w:>+6}" for w, n in zip(was, now)))


def compare(old_src: Path, new_src: Path, seed: int, n: int, finite_rejects=(), n_examples: int = 20) -> int:
    procs = [_spawn(src, seed, n) for src in (old_src, new_src)]
    old, new = (p.stdout for p in procs)
    bad = 0
    for src, header in ((old_src, old.readline()), (new_src, new.readline())):
        if header.strip() != f"# {(src / 'qplasma').resolve()}":
            print(f"worker imported the wrong tree: {header.strip()} (wanted {src})")
            bad += 1
    calls, expected, rejected, messages, unexpected, examples = Counter(), Counter(), Counter(), Counter(), Counter(), {}
    values: dict[str, ValueChanges] = {}
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
        kind = _rejected(args, res_old, res_new) if verdict == "unexpected difference" else None
        if kind is not None and (kind != "finite argument and result" or name in finite_rejects):
            key = name, kind, ""
            rejected[key] += 1
            examples.setdefault(key, (f"{name}({args})", res_old[2:], res_new[2:]))
            continue
        if verdict == "unexpected difference" and (same_class or now_typed):
            key = name, _NUMBER.sub("#", res_old[2:]), _NUMBER.sub("#", res_new[2:])
            (messages if same_class else expected)[key] += 1
            examples.setdefault(key, (f"{name}({args})", res_old[2:], res_new[2:]))
            continue
        bad += 1
        unexpected[name, _outcome_class(res_old), _outcome_class(res_new)] += 1
        if verdict == "unexpected difference" and res_old.startswith("=") and res_new.startswith("="):
            values.setdefault(name, ValueChanges()).add(res_old, res_new)
        if bad <= n_examples or not n_examples:
            print(f"{verdict}: {name}({args})\n  old {res_old}\n  new {res_new}")
            if name.startswith("row_") and verdict == "unexpected difference":
                for line in _changed_nodes(args, res_old, res_new):
                    print(line)
    for p in procs:
        p.stdout.close()  # a worker that is still writing stops instead of blocking
        if p.wait() != 0:
            print(f"worker exited with status {p.returncode}")
            bad += 1
    total = sum(calls.values())
    if total != n + _rows(n) + _sweeps(n):
        print(f"compared {total} of {n + _rows(n) + _sweeps(n)} calls")
        bad += 1
    print(f"{total} calls over {len(calls)} functions, seed {seed}")
    for kind, counts in (("error class", expected), ("message", messages)):
        for key, count in sorted(counts.items()):
            call, was, now = examples[key]
            print(f"  {key[0]}: {count} x {kind} changed, e.g. {call}\n    old: {was}\n    new: {now}")
    for key, count in sorted(rejected.items()):
        call, was, now = examples[key]
        print(f"  {key[0]}: {count} x {key[1]} now raises {EXPECTED_NEW}, e.g. {call}\n"
              f"    old: {was}\n    new: {now}")
    if unexpected:
        print("unexpected differences per function, old outcome -> new outcome:")
        for (name, was, now), count in sorted(unexpected.items()):
            print(f"  {name}: {count} x {was} -> {now}")
    if values:
        print("value -> value changes per function and token of the result:")
        for name, changes in sorted(values.items()):
            print(f"  {name}: {changes.calls} call(s)", *changes.lines(), sep="\n")
    _print_line_counts(old_src, new_src)
    print(f"{bad} unexpected difference(s)" if bad else "no unexpected difference")
    return 1 if bad else 0


def _unpack_src(rev: str, dest: Path) -> Path:
    """The ``src`` of git revision ``rev`` of this checkout, unpacked under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?", type=Path)
    parser.add_argument("new_src", nargs="?", type=Path)
    parser.add_argument("--against", metavar="REV", help="compare git revision REV with this checkout's src")
    parser.add_argument("--draws", type=int, default=600_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--finite-rejects", metavar="NAME", action="append", default=[],
                        help="expect a finite call of NAME that returned a value to raise NonFiniteResult now "
                             "(repeatable)")
    parser.add_argument("--examples", metavar="N", type=int, default=20,
                        help="print the first N unexpected differences (0: all; default 20)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.examples < 0:
        parser.error("--examples N takes N >= 0")
    if args.worker:
        _worker(args.seed, args.draws)
        return 0
    if args.against is not None:
        if args.old_src is not None or args.new_src is not None:
            parser.error("--against REV takes no OLD_SRC or NEW_SRC")
        with tempfile.TemporaryDirectory(prefix="compare_builds-") as tmp:
            return compare(_unpack_src(args.against, Path(tmp)), ROOT / "src", args.seed, args.draws,
                           args.finite_rejects, args.examples)
    if args.old_src is None or args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    return compare(args.old_src, args.new_src, args.seed, args.draws, args.finite_rejects, args.examples)


if __name__ == "__main__":
    raise SystemExit(main())
