"""Parameter sweeps over q for the figure-style curves, with CSV/SVG output.

A sweep fixes the model, x, xp and a list of collision frequencies y, and
evaluates the permittivity over a uniform q grid, serially, one y-row at a
time.  ``MODELS``, which :mod:`qplasma.kernels` defines and this module
re-binds, is a table of row functions, one per model: a row hoists
what is constant at its fixed z = x + iy (the checked z, the BGK
denominator 1 - g0(z), 1.5 xp^2), evaluates N over the whole row in one
loop and then each q node in the scalar ``epsilon_*`` order, so every value
and every error is the one the scalar function gives at that node.  Every
entry runs the one row evaluator ``kernels._rows``, which evaluates a row
that is the same for every y (the Mermin x = 0 row, the Lindhard row) once
per call and copies it; the Mermin rows at x != 0 share one N0(q) row.
A result keeps the rows as the model returns them, row-major (one row per
y, one value per q node), and both writers format from those rows; the
node-major ``eps[iq][iy]`` is built from them when it is first read.  So a
sweep allocates no container per node, and the garbage collector has
nothing per node to count or to traverse.  Output is deterministic: the CSV
is written with 17 significant digits, LF line endings and a fixed column
order (q, then one re/im pair per y), from list columns through one template
per line; the SVG projects the shared q column once per plot.

A q grid has one precondition: its step (q_max - q_min)/(q_steps - 1),
in floats, is a normal double.  ``SweepConfig`` refuses any other window
with ConfigError (a span that overflows, a step that is 0 or subnormal),
and the broadening scan raises NonFiniteResult for its y = 0 rows; so the
grid is lo + i*step and then hi: it never descends or leaves its window.

This module owns the rule for "a grid node sits on a singular q": within
1e-9 of it, found by two bisections of the grid per distinct pole.  Sweep
nodes that land on a y = 0 branch point (or on the static screening pole
at q = 2 for the Mermin model) are nudged by +1e-6 with a warning; the
broadening scan in :mod:`qplasma.kohn` reuses the same rule and the BGK
row of ``MODELS``, but skips such nodes instead.  Points whose evaluation
fails are left as empty CSV cells and summarised on stderr; they are never
interpolated.
"""

from __future__ import annotations

import math
import os.path
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from numbers import Integral
from pathlib import Path

from .errors import ConfigError, QplasmaError
from .kernels import MODELS, _normal, _number, branch_points_q
from .svg import line_plot

__all__ = ["SweepConfig", "SweepResult", "run_sweep", "load_config_file", "parse_q_range"]

FORMATS = ("csv", "svg", "both")
_NUDGE = 1e-6
_NODE_POLE_TOL = 1e-9


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: model, fixed x and xp, y values, uniform q grid, output
    base path and format ("csv", "svg" or "both").  The output needs a file
    name; a .csv or .svg it ends in is dropped (see _output_base)."""

    model: str
    x: float
    y: tuple[float, ...]
    q_min: float
    q_max: float
    q_steps: int
    xp: float
    output: str
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {tuple(MODELS)}, got {self.model!r}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.fmt!r}")
        values = (self.x, self.xp, self.q_min, self.q_max, *self.y)
        if not all(math.isfinite(_number(v, "SweepConfig", error=ConfigError)) for v in values):
            raise ConfigError("x, y, xp and the q range must be finite")
        if not isinstance(self.q_steps, Integral):
            raise ConfigError(f"q_steps must be an integer, got {self.q_steps!r}")
        if self.q_steps < 2:
            raise ConfigError(f"q range needs at least 2 steps, got {self.q_steps}")
        _number(self.q_steps, "SweepConfig", error=ConfigError)  # a count beyond double range cannot space the grid
        if not self.q_max > self.q_min:
            raise ConfigError("q range needs q_min < q_max")
        # the one precondition of a _linspace grid, whose step is taken in floats
        _normal((float(self.q_max) - float(self.q_min)) / (self.q_steps - 1),
                "the q step (q_max - q_min)/(q_steps - 1)", error=ConfigError)
        if not self.y:
            raise ConfigError("at least one y value is required")
        if any(y < 0 for y in self.y):
            raise ConfigError("y values must be >= 0")
        if self.model == "lindhard" and any(y != 0 for y in self.y):
            raise ConfigError("the lindhard model is collisionless; use y=0")
        if self.xp < 0:
            raise ConfigError("xp must be >= 0")
        labels = [format(y, "g") for y in self.y]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"y values must have distinct column labels, got {', '.join(labels)}")
        if os.path.basename(_output_base(self.output)) in ("", ".", ".."):
            raise ConfigError(f"output needs a file name, got {self.output!r}")


def _output_base(output: str) -> str:
    """The output path without a .csv or .svg it ends in; run_sweep appends
    each file's suffix to it, so a dot elsewhere in the name is kept."""
    output = os.fspath(output)
    return output[:-4] if output.endswith((".csv", ".svg")) else output


@dataclass(frozen=True)
class SkippedPoint:
    q: float
    y: float
    reason: str


@dataclass(frozen=True)
class SweepResult:
    """A sweep's grid and values.  ``rows[iy][iq]`` is eps at ``config.y[iy]``
    and ``q_values[iq]``, or None at a skipped node: the rows as the model
    returns them.  ``eps`` is the same values node-major, ``eps[iq][iy]``,
    derived from the rows when it is first read and kept."""

    config: SweepConfig
    q_values: tuple[float, ...]
    rows: tuple[tuple[complex | None, ...], ...]  # [iy][iq]
    skipped: tuple[SkippedPoint, ...]
    nudged: tuple[tuple[float, float], ...]  # (original, shifted)
    csv_path: Path | None = None
    svg_path: Path | None = None

    @cached_property
    def eps(self) -> tuple[tuple[complex | None, ...], ...]:  # [iq][iy]
        return tuple(zip(*self.rows))

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(
            f"grid node q={orig:.17g} sits on a singular point; nudged to {new:.17g}"
            for orig, new in self.nudged
        )

    @property
    def skipped_fraction(self) -> float:
        total = len(self.q_values) * len(self.config.y)
        return len(self.skipped) / total if total else 0.0

    def csv_text(self) -> str:
        header = ["q"]
        for y in self.config.y:
            label = format(y, "g")
            header += [f"re_eps_y{label}", f"im_eps_y{label}"]
        # one "%.17g" template per line ("%.17g" % v == format(v, ".17g")),
        # filled in one pass from the list columns interleaved into one flat
        # list; a line with a skipped point (None) has empty cells in its
        # template in place of those two, which leave the flat list
        columns, gap_rows = [self.q_values], []
        for row in self.rows:
            try:
                columns += [e.real for e in row], [e.imag for e in row]
            except AttributeError:  # a None
                columns += [None if e is None else e.real for e in row], [None if e is None else e.imag for e in row]
                gap_rows.append(row)
        width = len(columns)
        flat = [None] * (width * len(self.q_values))
        for j, column in enumerate(columns):
            flat[j::width] = column
        lines = [",".join(header)] + [",".join(["%.17g"] * width)] * len(self.q_values)  # no "%" in the header
        if gap_rows:
            for i in {i for row in gap_rows for i, e in enumerate(row) if e is None}:
                lines[i + 1] = ",".join(["%.17g" if v is not None else "" for v in flat[i * width:(i + 1) * width]])
            flat = [v for v in flat if v is not None]
        return "\n".join(lines) % tuple(flat) + "\n"

    def svg_text(self) -> str:
        series = [(f"y={format(y, 'g')}", [None if e is None else e.real for e in row])
                  for y, row in zip(self.config.y, self.rows)]
        title = f"{self.config.model}: Re eps vs q (x={self.config.x:g}, xp={self.config.xp:g})"
        return line_plot(self.q_values, series, title, "q = k/kF", "Re eps")


def parse_q_range(text: str) -> tuple[float, float, int]:
    """Parse a 'min:max:steps' range string."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"q range must be min:max:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad q range {text!r}: {exc}") from None


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value config file ('#' comments, blank lines ok), in
    UTF-8; a file that cannot be read or decoded raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _singular_q(cfg: SweepConfig) -> list[float]:
    """q values where evaluation is exactly singular for this config."""
    qs: list[float] = []
    if 0.0 in cfg.y:
        qs.extend(branch_points_q(cfg.x))
    if cfg.model == "mermin":
        # static screening combination N0(q) hits its branch point at q = 2
        # for every y; these are also the poles of the x = 0 static route
        qs.extend((2.0, -2.0))
    return qs


def _pole_nodes(qs, poles) -> list[int]:
    """Indices, ascending, of the nodes q of ``qs`` that sit on one of the
    finite singular wavenumbers ``poles``: |q - b| < 1e-9.  ``qs`` must be
    a ``_linspace`` grid, which does not descend, so q - b does not either,
    and the nodes of each distinct pole are the run between two bisections."""
    hits: set[int] = set()
    lo, hi = -_NODE_POLE_TOL, _NODE_POLE_TOL  # lo < q - b < hi is |q - b| < 1e-9
    for b in set(poles):
        key = b.__rsub__  # q - b
        hits.update(range(bisect_right(qs, lo, key=key), bisect_left(qs, hi, key=key)))
    return sorted(hits)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 uniform nodes from lo < hi: lo + i*step, and last hi itself.
    The step (hi - lo)/(n - 1) must be a normal double, as every caller
    checks; then the nodes are those of numpy.linspace bit for bit, and
    they do not descend and stay inside [lo, hi]."""
    lo, hi = float(lo), float(hi)
    step = (hi - lo) / (n - 1)
    nodes = [i * step + lo for i in range(n - 1)]
    nodes.append(hi)
    return nodes


def _grid(cfg: SweepConfig) -> tuple[list[float], list[tuple[float, float]]]:
    qs = _linspace(cfg.q_min, cfg.q_max, cfg.q_steps)
    nudged: list[tuple[float, float]] = []
    for i in _pole_nodes(qs, _singular_q(cfg)):
        q = qs[i]
        qs[i] = q + _NUDGE
        nudged.append((q, qs[i]))
    return qs, nudged


def run_sweep(cfg: SweepConfig, write: bool = True) -> SweepResult:
    """Evaluate the sweep and (optionally) write <base>.csv / <base>.svg, where
    <base> is the output without a .csv or .svg it ends in."""
    qs, nudged = _grid(cfg)
    rows = MODELS[cfg.model](cfg.x, cfg.y, qs, cfg.xp)
    bad = [iy for iy, row in enumerate(rows) if any(map(isinstance, row, repeat(QplasmaError)))]
    skipped = tuple(  # node by node, then row by row
        SkippedPoint(q, cfg.y[iy], f"{type(v).__name__}: {v}")
        for i, q in enumerate(qs) for iy in bad if isinstance(v := rows[iy][i], QplasmaError)
    )
    for iy in bad:
        rows[iy] = [None if isinstance(v, QplasmaError) else v for v in rows[iy]]
    base = _output_base(cfg.output)
    csv_path = Path(base + ".csv") if write and cfg.fmt in ("csv", "both") else None
    svg_path = Path(base + ".svg") if write and cfg.fmt in ("svg", "both") else None
    result = SweepResult(config=cfg, q_values=tuple(qs), rows=tuple(map(tuple, rows)), skipped=skipped,
                         nudged=tuple(nudged), csv_path=csv_path, svg_path=svg_path)
    if write:
        Path(base).parent.mkdir(parents=True, exist_ok=True)
        for path, text in ((csv_path, result.csv_text), (svg_path, result.svg_text)):
            if path is not None:
                with open(path, "w", newline="") as fh:
                    fh.write(text())
    return result
