"""Minimal deterministic SVG line plots (fixed 800x450 viewBox, linear axes).

No plotting dependency: sweeps must produce byte-identical output for a
given input, which hand-rolled formatting guarantees.  The series share one
x column; a y column may contain None entries (skipped points), where its
polyline breaks.
"""

from __future__ import annotations

import math
from itertools import groupby

__all__ = ["line_plot"]

WIDTH = 800
HEIGHT = 450
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 28, 44

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0.0 or not math.isfinite(span):
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * mag) <= target:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks, j, t = [], 0, first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        j, last = j + 1, t
        t = first + j * step  # from the index j, so no rounding accumulates: a zero tick is 0
        if t == last:  # a span of a few ulps: the step cannot move t
            break
    return ticks


def _runs(ys) -> list[tuple[int, int]]:
    """The index ranges [lo, hi) of ys between its None entries."""
    if None not in ys:
        return [(0, len(ys))]
    runs, lo = [], 0
    for gap, group in groupby(ys, lambda y: y is None):
        hi = lo + len(list(group))
        if not gap:
            runs.append((lo, hi))
        lo = hi
    return runs


def line_plot(
    xs: list[float],
    series: list[tuple[str, list[float | None]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labelled polylines over the shared x column xs, one y column
    per series (None where a point is skipped), to an SVG 1.1 document string."""
    runs = [_runs(ys) for _, ys in series]
    x_all, y_all = [], []  # the points drawn, series by series, in the order the extents are taken
    for (_, ys), series_runs in zip(series, runs):
        for lo, hi in series_runs:
            x_all += xs[lo:hi]
            y_all += ys[lo:hi]
    if not x_all:
        x_all, y_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(x_all), max(x_all)
    if x_hi == x_lo:  # 1.0 below 2**53, where x + 1.0 is another float
        x_hi = x_lo + max(1.0, math.ulp(x_lo))
    # The y axis is drawn in units of y: 1, or 4 where the padded extent
    # overflows, as every padded |y/4| stays below 5e307 (dividing by a
    # power of two is exact); a tick whose value 4t overflows is not drawn.
    for unit in (1.0, 4.0):
        y_lo, y_hi = min(y_all) / unit, max(y_all) / unit
        if y_hi == y_lo:  # as for x
            y_hi = y_lo + max(1.0, math.ulp(y_lo))
        y_pad = 0.05 * (y_hi - y_lo)
        y_lo -= y_pad
        y_hi += y_pad
        if math.isfinite(y_hi - y_lo):
            break
    if unit != 1.0:
        series = [(label, [None if y is None else y / unit for y in ys]) for label, ys in series]

    x0, dx, pw = MARGIN_L, x_hi - x_lo, WIDTH - MARGIN_L - MARGIN_R
    y0, dy, ph = HEIGHT - MARGIN_B, y_hi - y_lo, HEIGHT - MARGIN_T - MARGIN_B

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="18" font-family="sans-serif" font-size="14" text-anchor="middle">{title}</text>',
    ]
    # axes box
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = x0 + (t - x_lo) / dx * pw
        out.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.2f}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        if not math.isfinite(t * unit):
            continue
        py = y0 - (t - y_lo) / dy * ph
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{t * unit:g}</text>'
        )
    out.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 8}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">{ylabel}</text>'
    )

    pxs = [x0 + (x - x_lo) / dx * pw for x in xs]  # projected once for every series
    pair = "%.2f,%.2f"
    if len(series) > 1:  # and formatted once for all of them: "%s" of "%.2f" % px prints what "%.2f" would
        pxs, pair = ("%.2f " * len(pxs) % tuple(pxs)).split(), "%s,%.2f"
    for i, ((label, ys), series_runs) in enumerate(zip(series, runs)):
        color = _PALETTE[i % len(_PALETTE)]
        for lo, hi in series_runs:
            if hi - lo > 1:  # one pair template over the flat (px, py) pairs of a polyline
                flat = [0.0] * (2 * (hi - lo))
                flat[0::2] = pxs[lo:hi]
                flat[1::2] = [y0 - (y - y_lo) / dy * ph for y in ys[lo:hi]]
                points = " ".join([pair] * (hi - lo)) % tuple(flat)
                out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        lx = WIDTH - MARGIN_R - 120
        ly = MARGIN_T + 16 + 16 * i
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
