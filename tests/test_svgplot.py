"""Polyline coordinates of ``render_line_plot`` against a per-point reference.

The renderer maps and formats each polyline as whole arrays; the reference
below is the scalar formula it replaced, one ``f"{v:.2f}"`` per coordinate.
The two must agree byte for byte, including on values whose pixel
coordinate lies exactly halfway between two hundredths.
"""

import re
import warnings

import numpy as np
import pytest

from fracbvp.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T,
                             WIDTH, Series, render_line_plot)

INNER_W = WIDTH - MARGIN_L - MARGIN_R
INNER_H = HEIGHT - MARGIN_T - MARGIN_B


def _axis_ranges(series):
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
    if xhi == xlo:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.04 * (yhi - ylo)
    return xlo, xhi, ylo - pad, yhi + pad


def _px(x, xlo, xhi):
    return MARGIN_L + (x - xlo) / (xhi - xlo) * INNER_W


def _py(y, ylo, yhi):
    return MARGIN_T + (yhi - y) / (yhi - ylo) * INNER_H


def _reference_points(series):
    xlo, xhi, ylo, yhi = _axis_ranges(series)
    return [" ".join(f"{_px(float(a), xlo, xhi):.2f},"
                     f"{_py(float(b), ylo, yhi):.2f}"
                     for a, b in zip(s.x, s.y))
            for s in series]


def _rendered_points(svg):
    return re.findall(r'<polyline [^>]*points="([^"]*)"', svg)


def _check(series):
    svg = render_line_plot(series, "t")
    assert _rendered_points(svg) == _reference_points(series)
    return svg


@pytest.mark.parametrize("seed", range(6))
def test_random_series_match_reference(seed):
    rng = np.random.default_rng(seed)
    series = []
    for i in range(1 + seed % 4):
        n = int(rng.integers(1, 400))
        x = np.sort(rng.uniform(-3.0, 5.0, n)) * 10.0 ** rng.integers(-3, 4)
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7)
        series.append(Series(f"s{i}", x, y, "#000000"))
    _check(series)


def _preimage(f, target, lo, hi):
    """A float v in [lo, hi] with f(v) == target, f increasing; else None."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return next((v for v in (lo, hi) if f(v) == target), None)


def _with_neighbours(v):
    v = np.asarray(v, dtype=float)
    return np.concatenate([v, np.nextafter(v, -np.inf),
                           np.nextafter(v, np.inf)])


def test_hundredths_ties_match_reference():
    # data spanning [-1000, 1] on both axes fixes both maps; search each
    # tie's preimage under them, and keep the ties the map can reach
    xlo, xhi = -1000.0, 1.0
    ylo, yhi = -1000.0 - 0.04 * 1001.0, 1.0 + 0.04 * 1001.0

    def ties(f, pixels):
        targets = [p + frac for p in pixels
                   for frac in (0.125, 0.375, 0.625, 0.875)]
        hits = [_preimage(f, t, -1000.0, 1.0) for t in targets]
        hits = [v for v in hits if v is not None]
        assert len(hits) > len(targets) // 2
        return np.r_[-1000.0, _with_neighbours(hits), 1.0]

    tx = ties(lambda x: _px(x, xlo, xhi), range(65, 743, 3))
    ty = ties(lambda y: -_py(y, ylo, yhi), range(-448, -52, 3))
    assert _axis_ranges([Series("", tx, ty, "")]) == (xlo, xhi, ylo, yhi)
    _check([Series("x ties", tx, np.linspace(-1000.0, 1.0, tx.size), ""),
            Series("y ties", np.linspace(-1000.0, 1.0, ty.size), ty, "")])


def test_lists_and_integer_arrays_match_reference():
    _check([Series("list", [0, 1, 2, 3], [5.5, -2, 7, 0.25], "#111111"),
            Series("ints", np.arange(-3, 9), np.arange(12) ** 2, "#222222"),
            Series("int32", np.arange(4, dtype=np.int32),
                   np.array([3, 1, 4, 1], dtype=np.int32), "#333333")])


@pytest.mark.parametrize("x, y", [([0.5], [2.0]),
                                  ([0.25, 0.25, 0.25], [1.0, -1.0, 3.0])],
                         ids=["one-point", "equal-x"])
def test_flat_x_range_renders_finite_coordinates(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = _check([Series("flat", np.array(x), np.array(y), "#000000")])
    assert not re.search(r"\b(nan|inf)\b", svg)
