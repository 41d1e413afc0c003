"""Minimal deterministic SVG line plots.

No plotting library: identical inputs must yield byte-identical files, and
the output has to be self-contained (inline styling, no fonts fetched, no
timestamps).  Good enough for overlaying a handful of curves with axes and
a legend.

Polyline coordinates are computed as numpy arrays, through the same maps
that place the ticks, and formatted in one ``%`` call.  float64 arithmetic
gives the same bits elementwise as on Python floats, and ``"%.2f"`` rounds
as ``f"{v:.2f}"`` does, so the bytes equal per-point ``.2f`` formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

WIDTH, HEIGHT = 760, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 46

# dark-blue to yellow ramp for stage curves
_RAMP = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]


def ramp_color(t: float) -> str:
    """Hex color at position t in [0, 1] along the stage ramp."""
    t = min(max(t, 0.0), 1.0) * (len(_RAMP) - 1)
    i = min(int(t), len(_RAMP) - 2)
    frac = t - i
    rgb = [round(a + (b - a) * frac) for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    color: str
    width: float = 1.5
    in_legend: bool = True


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    """Fixed, locale-free number formatting for coordinates."""
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if 1e-3 <= abs(v) < 1e4:
        s = f"{v:.4g}"
    else:
        s = f"{v:.2e}"
    return s


def render_line_plot(series: Sequence[Series], title: str,
                     xlabel: str = "x", ylabel: str = "u") -> str:
    """Render overlaid curves to an SVG 1.1 document string."""
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    xlo, xhi = float(np.min(xs)), float(np.max(xs))
    ylo, yhi = float(np.min(ys)), float(np.max(ys))
    if xhi == xlo:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    # scalar tick positions, or whole float64 arrays for the polylines
    def px(x):
        return MARGIN_L + (x - xlo) / (xhi - xlo) * inner_w

    def py(y):
        return MARGIN_T + (yhi - y) / (yhi - ylo) * inner_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    # frame
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{inner_w}" '
        f'height="{inner_h}" fill="none" stroke="#333333" stroke-width="1"/>')

    for t in _nice_ticks(xlo, xhi):
        if not xlo <= t <= xhi:
            continue
        X = _fmt(px(t))
        out.append(f'<line x1="{X}" y1="{_fmt(MARGIN_T + inner_h)}" '
                   f'x2="{X}" y2="{_fmt(MARGIN_T + inner_h + 5)}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{X}" y="{MARGIN_T + inner_h + 20}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt_tick(t)}</text>')
    for t in _nice_ticks(ylo, yhi):
        if not ylo <= t <= yhi:
            continue
        Y = _fmt(py(t))
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{Y}" x2="{MARGIN_L}" '
                   f'y2="{Y}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{Y}" text-anchor="end" '
                   f'dominant-baseline="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt_tick(t)}</text>')

    out.append(f'<text x="{MARGIN_L + inner_w // 2}" y="{HEIGHT - 8}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{MARGIN_T + inner_h // 2}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {MARGIN_T + inner_h // 2})">'
               f'{ylabel}</text>')

    for s in series:
        # float64 arrays through px/py give the scalar maps' bits, and "%.2f"
        # rounds exactly as _fmt does
        xy = np.column_stack((px(np.asarray(s.x, dtype=float)),
                              py(np.asarray(s.y, dtype=float))))
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        out.append(f'<polyline fill="none" stroke="{s.color}" '
                   f'stroke-width="{s.width}" points="{pts}"/>')

    legend = [s for s in series if s.in_legend]
    ly = MARGIN_T + 10
    for s in legend:
        out.append(f'<rect x="{MARGIN_L + 10}" y="{ly - 8}" width="18" '
                   f'height="4" fill="{s.color}"/>')
        out.append(f'<text x="{MARGIN_L + 34}" y="{ly - 1}" '
                   f'font-family="sans-serif" font-size="11">{s.label}</text>')
        ly += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"
