"""Minimal deterministic SVG line plots.

No plotting library: identical inputs must yield byte-identical files, and
the output has to be self-contained (inline styling, no fonts fetched, no
timestamps).  Good enough for overlaying a handful of curves with axes and
a legend.

Polyline coordinates of all series are mapped as one numpy array, through
the same maps that place the ticks; float64 arithmetic gives the same bits
elementwise as on Python floats.  They are formatted in one pass too: with
``q = rint(100 v)``, the text is ``q // 100``, ".", and ``q % 100`` in two
digits, both looked up in small byte tables.  That equals ``"%.2f" % v``,
the correctly rounded decimal, wherever rounding ``100 v`` to a float cannot
have moved it onto a half: those few values, within 1e-6 of a half, are
formatted by Python instead.  So the bytes equal per-point ``.2f``
formatting.
"""

from __future__ import annotations

import math
import sys
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


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """An axis range ``lo < hi``: a flat one is widened by 1 each way, or by
    an ulp on a side where 1 would not move it."""
    if hi == lo:
        lo = min(lo - 1.0, math.nextafter(lo, -math.inf))
        hi = max(hi + 1.0, math.nextafter(hi, math.inf))
    return lo, hi


_FLOAT_MAX = sys.float_info.max


def _halving(lo: float, hi: float) -> float:
    """1, or 1/2 where ``hi - lo`` overflows: a span beyond the float range
    is measured between the halves of its ends, which are exact, and any
    other span keeps its bits."""
    return 1.0 if math.isfinite(hi - lo) else 0.5


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick values in ``[lo, hi]``, ``lo < hi``, about five intervals
    apart."""
    # a span of a few subnormal ulps would underflow raw, or its decade, to
    # 0; from 1e-322 on the decade is at least 10**-323, which is not 0
    s = _halving(lo, hi)
    raw = max((s * hi - s * lo) / (5 * s), 1e-322)
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
        if t + step == t:  # a step below half an ulp of t
            break
        t += step
    return ticks


# a coordinate's text as two 4-byte words, NUL-padded: its whole part and
# ".", then its cents and the separator after it ("," after x, " " after y,
# "\n" after a polyline's last y, so that one string splits into polylines)
_WHOLE = np.frombuffer(b"".join(b"%3d." % i for i in range(1000))
                       .replace(b" ", b"\0"), dtype=np.uint32)
_CENTS = np.frombuffer(b"".join(b"%02d%c\0" % (c, sep) for c in range(100)
                                for sep in b", \n"), dtype=np.uint32)


def _fmt(v: float) -> str:
    """Fixed, locale-free number formatting for coordinates."""
    return f"{v:.2f}"


def _fmt_tick(v: float, extra: int) -> str:
    if v == 0:
        return "0"
    if 1e-3 <= abs(v) < 1e4:
        return f"{v:.{4 + extra}g}"
    return f"{v:.{2 + extra}e}"


def _tick_labels(ticks: list[float]) -> list[str]:
    """The labels of one axis's ticks, with the fewest extra significant
    digits that make neighbouring labels differ; the ticks are distinct
    doubles, so 17 digits always do."""
    for extra in range(16):
        labels = [_fmt_tick(t, extra) for t in ticks]
        if all(a != b for a, b in zip(labels, labels[1:])):
            break
    return labels


def render_line_plot(series: Sequence[Series], title: str) -> str:
    """Render overlaid curves of ``u`` against ``x`` to an SVG 1.1 document
    string."""
    sizes = [len(s.x) for s in series]
    if sizes != [len(s.y) for s in series]:
        raise ValueError("each series needs as many y values as x values")
    xs = np.concatenate([s.x for s in series], dtype=float)
    ys = np.concatenate([s.y for s in series], dtype=float)
    xlo, xhi = _widen(float(np.min(xs)), float(np.max(xs)))
    ylo, yhi = _widen(float(np.min(ys)), float(np.max(ys)))
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = max(ylo - pad, -_FLOAT_MAX), min(yhi + pad, _FLOAT_MAX)
    sx, sy = _halving(xlo, xhi), _halving(ylo, yhi)

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    # scalar tick positions, or whole float64 arrays for the polylines
    def px(x):
        return MARGIN_L + (sx * x - sx * xlo) / (sx * xhi - sx * xlo) * inner_w

    def py(y):
        return MARGIN_T + (sy * yhi - sy * y) / (sy * yhi - sy * ylo) * inner_h

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

    xticks = [t for t in _nice_ticks(xlo, xhi) if xlo <= t <= xhi]
    for t, label in zip(xticks, _tick_labels(xticks)):
        X = _fmt(px(t))
        out.append(f'<line x1="{X}" y1="{_fmt(MARGIN_T + inner_h)}" '
                   f'x2="{X}" y2="{_fmt(MARGIN_T + inner_h + 5)}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{X}" y="{MARGIN_T + inner_h + 20}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    yticks = [t for t in _nice_ticks(ylo, yhi) if ylo <= t <= yhi]
    for t, label in zip(yticks, _tick_labels(yticks)):
        Y = _fmt(py(t))
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{Y}" x2="{MARGIN_L}" '
                   f'y2="{Y}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{Y}" text-anchor="end" '
                   f'dominant-baseline="middle" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')

    out.append(f'<text x="{MARGIN_L + inner_w // 2}" y="{HEIGHT - 8}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">x</text>')
    out.append(f'<text x="16" y="{MARGIN_T + inner_h // 2}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {MARGIN_T + inner_h // 2})">'
               f'u</text>')

    # every polyline's text in one pass.  rint(100 v) is the "%.2f" rounding
    # of v unless the float product 100 v rounded onto a half that v itself
    # is not on; so the values within 1e-6 of a half are formatted by
    # Python.  Coordinates lie in the box, so q // 100 indexes _WHOLE.
    v = np.column_stack((px(xs), py(ys))).ravel()
    hundredths = 100.0 * v
    q = np.rint(hundredths)
    near = np.abs(np.abs(hundredths - q) - 0.5) < 1e-6
    q = q.astype(np.intp)
    q[near] = [int(("%.2f" % c).replace(".", "")) for c in v[near].tolist()]
    whole, cents = np.divmod(q, 100)
    tail = 3 * cents  # "," after x
    tail[1::2] += 1  # " " after y
    ends = np.cumsum(sizes)[np.array(sizes) > 0]
    tail[2 * ends - 1] += 1  # "\n" after a last y
    text = np.column_stack((_WHOLE[whole], _CENTS[tail])).tobytes()
    polylines = iter(text.translate(None, b"\0").decode("ascii").split("\n"))
    for s, k in zip(series, sizes):
        pts = next(polylines) if k else ""
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
