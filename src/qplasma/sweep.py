"""Parameter sweeps over q for the figure-style curves, with CSV/SVG output.

A sweep fixes the model, x, xp and a list of collision frequencies y, and
evaluates the permittivity over a uniform q grid, serially, one y-row at a
time.  Output is deterministic: the CSV is written with 17 significant
digits, LF line endings and a fixed column order (q, then one re/im pair
per y).

This module owns the rule for "a grid node sits on a singular q": within
1e-9 of it.  Sweep nodes that land on a y = 0 branch point (or on the
static screening pole at q = 2 for the Mermin model) are nudged by +1e-6
with a warning; the broadening scan in :mod:`qplasma.kohn` reuses the same
rule and the same row evaluator, but skips such nodes instead.  Points
whose evaluation fails are left as empty CSV cells and summarised on
stderr; they are never interpolated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .dielectric import (
    DimensionlessPointA,
    branch_points_q,
    epsilon_collisional_a,
    epsilon_lindhard,
    epsilon_mermin,
)
from .errors import QplasmaError
from .svg import line_plot

__all__ = ["SweepConfig", "SweepResult", "run_sweep", "load_config_file", "parse_q_range"]

# The one table from model name to eps(x, y, q, xp), read by the sweep, the
# broadening scan and the CLI; raises QplasmaError.  Lindhard ignores y.
MODELS = {
    "bgk": lambda x, y, q, xp: epsilon_collisional_a(DimensionlessPointA(x, y, q, xp)).epsilon,
    "mermin": lambda x, y, q, xp: epsilon_mermin(DimensionlessPointA(x, y, q, xp)).epsilon,
    "lindhard": lambda x, y, q, xp: epsilon_lindhard(x, q, xp).epsilon,
}
FORMATS = ("csv", "svg", "both")
_NUDGE = 1e-6
_NODE_POLE_TOL = 1e-9


class ConfigError(ValueError):
    """Bad sweep configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: model, fixed x and xp, y values, uniform q grid, output
    base path and format ("csv", "svg" or "both")."""

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
        if not all(math.isfinite(v) for v in (self.x, self.xp, self.q_min, self.q_max, *self.y)):
            raise ConfigError("x, y, xp and the q range must be finite")
        if self.q_steps < 2:
            raise ConfigError(f"q range needs at least 2 steps, got {self.q_steps}")
        if not self.q_max > self.q_min:
            raise ConfigError("q range needs q_min < q_max")
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


@dataclass(frozen=True)
class SkippedPoint:
    q: float
    y: float
    reason: str


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    q_values: tuple[float, ...]
    eps: tuple[tuple[complex | None, ...], ...]  # [iq][iy]
    skipped: tuple[SkippedPoint, ...]
    nudged: tuple[tuple[float, float], ...]  # (original, shifted)
    csv_path: Path | None = None
    svg_path: Path | None = None

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
        lines = [",".join(header)]
        for iq, q in enumerate(self.q_values):
            cells = [format(q, ".17g")]
            for iy in range(len(self.config.y)):
                e = self.eps[iq][iy]
                if e is None:
                    cells += ["", ""]
                else:
                    cells += [format(e.real, ".17g"), format(e.imag, ".17g")]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def svg_text(self) -> str:
        series = []
        for iy, y in enumerate(self.config.y):
            pts: list[tuple[float, float] | None] = []
            for iq, q in enumerate(self.q_values):
                e = self.eps[iq][iy]
                pts.append(None if e is None else (q, e.real))
            series.append((f"y={format(y, 'g')}", pts))
        title = f"{self.config.model}: Re eps vs q (x={self.config.x:g}, xp={self.config.xp:g})"
        return line_plot(series, title, "q = k/kF", "Re eps")


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
    """Read a flat key=value config file ('#' comments, blank lines ok)."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
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
        # for every y, and the x = 0 route is static for every y as well
        qs.extend((2.0, -2.0))
        if cfg.x == 0.0:
            qs.extend(branch_points_q(0.0))
    return qs


def _on_singular_q(q: float, poles) -> bool:
    """Whether grid node q sits on one of the singular wavenumbers ``poles``."""
    return any(abs(q - b) < _NODE_POLE_TOL for b in poles)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 uniform nodes from lo to hi, bit for bit those of
    numpy.linspace: lo + i*step, or lo + (i/(n-1))*delta when the step
    underflows to 0 (numpy gh-5437), and the last node exactly hi."""
    lo, hi = float(lo), float(hi)
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        nodes = [i / div * delta + lo for i in range(div)]
    else:
        nodes = [i * step + lo for i in range(div)]
    nodes.append(hi)
    return nodes


def _grid(cfg: SweepConfig) -> tuple[list[float], list[tuple[float, float]]]:
    qs = _linspace(cfg.q_min, cfg.q_max, cfg.q_steps)
    nudged: list[tuple[float, float]] = []
    poles = _singular_q(cfg)
    for i, q in enumerate(qs):
        if _on_singular_q(q, poles):
            qs[i] = q + _NUDGE
            nudged.append((q, qs[i]))
    return qs, nudged


def _evaluate_row(model: str, x: float, xp: float, qs, y: float, poles=()) -> list[complex | SkippedPoint]:
    """eps of ``model`` over the q grid at fixed x, xp and y: a value per
    node, or the SkippedPoint that says why there is none.  Nodes on one of
    ``poles`` are skipped without being evaluated."""
    evaluate = MODELS[model]
    row: list[complex | SkippedPoint] = []
    for q in qs:
        if _on_singular_q(q, poles):
            row.append(SkippedPoint(q=q, y=y, reason="grid node sits on a singular q"))
            continue
        try:
            row.append(evaluate(x, y, q, xp))
        except QplasmaError as exc:
            row.append(SkippedPoint(q=q, y=y, reason=f"{type(exc).__name__}: {exc}"))
    return row


def run_sweep(cfg: SweepConfig, write: bool = True) -> SweepResult:
    """Evaluate the sweep and (optionally) write <output>.csv / <output>.svg."""
    qs, nudged = _grid(cfg)
    rows = [_evaluate_row(cfg.model, cfg.x, cfg.xp, qs, y) for y in cfg.y]
    eps: list[tuple[complex | None, ...]] = []
    skipped: list[SkippedPoint] = []
    for node in zip(*rows):
        skipped.extend(v for v in node if isinstance(v, SkippedPoint))
        eps.append(tuple(None if isinstance(v, SkippedPoint) else v for v in node))
    result = SweepResult(
        config=cfg,
        q_values=tuple(qs),
        eps=tuple(eps),
        skipped=tuple(skipped),
        nudged=tuple(nudged),
    )
    if not write:
        return result

    base = Path(cfg.output)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = svg_path = None
    if cfg.fmt in ("csv", "both"):
        csv_path = base.with_suffix(".csv")
        with open(csv_path, "w", newline="") as fh:
            fh.write(result.csv_text())
    if cfg.fmt in ("svg", "both"):
        svg_path = base.with_suffix(".svg")
        with open(svg_path, "w", newline="") as fh:
            fh.write(result.svg_text())
    return dataclasses.replace(result, csv_path=csv_path, svg_path=svg_path)
