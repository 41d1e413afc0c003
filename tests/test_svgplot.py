"""Polyline coordinates of ``render_line_plot`` against a per-point reference.

The renderer maps and formats the polylines of all series as one array;
the reference below is the scalar formula it replaced, one ``f"{v:.2f}"``
per coordinate.  The two must agree byte for byte, including on values
whose pixel coordinate lies exactly halfway between two hundredths or on
the float nearest such a half.
"""

import math
import re
import warnings

import numpy as np
import pytest

from fracbvp.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T,
                             WIDTH, Series, render_line_plot)

INNER_H = HEIGHT - MARGIN_T - MARGIN_B


def _axis_ranges(series):
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
    # a flat range moves by 1, or by an ulp on a side that 1 does not move
    if xhi == xlo:
        xlo = min(xlo - 1.0, math.nextafter(xlo, -math.inf))
        xhi = max(xhi + 1.0, math.nextafter(xhi, math.inf))
    if yhi == ylo:
        ylo = min(ylo - 1.0, math.nextafter(ylo, -math.inf))
        yhi = max(yhi + 1.0, math.nextafter(yhi, math.inf))
    pad = 0.04 * (yhi - ylo)
    return xlo, xhi, ylo - pad, yhi + pad


def _px(x, xlo, xhi, left=MARGIN_L):
    return left + (x - xlo) / (xhi - xlo) * (WIDTH - left - MARGIN_R)


def _py(y, ylo, yhi):
    return MARGIN_T + (yhi - y) / (yhi - ylo) * INNER_H


def _reference_points(series, left=MARGIN_L):
    xlo, xhi, ylo, yhi = _axis_ranges(series)
    return [" ".join(f"{_px(float(a), xlo, xhi, left):.2f},"
                     f"{_py(float(b), ylo, yhi):.2f}"
                     for a, b in zip(s.x, s.y))
            for s in series]


def _rendered_points(svg):
    return re.findall(r'<polyline [^>]*points="([^"]*)"', svg)


def _left_margin(ylabels):
    """The frame's left edge: the default margin, or wider where the widest
    y tick label (about 6.6 px a character, 8 px from the frame) would reach
    into the 18 px of the rotated axis title."""
    widest = max(map(len, ylabels), default=0)
    return max(MARGIN_L, 18 + math.ceil(6.6 * widest) + 8)


def _check(series):
    svg = render_line_plot(series, "t")
    left = _left_margin(_tick_labels(svg, "end"))
    assert f'<rect x="{left}" y="{MARGIN_T}" ' in svg
    assert _rendered_points(svg) == _reference_points(series, left)
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


def test_floats_nearest_a_hundredths_half_match_reference():
    # "k.kk5" is no float, so the float nearest it lies a little off the
    # half; 100 v can still round onto the half, where rint and "%.2f" part
    xlo, xhi = -1000.0, 1.0
    ylo, yhi = -1000.0 - 0.04 * 1001.0, 1.0 + 0.04 * 1001.0

    def near_halves(f, pixels):
        targets = [float(f"{abs(p)}.{c:02d}5") * np.sign(p)
                   for p in pixels for c in range(3, 100, 8)]
        hits = [_preimage(f, t, -1000.0, 1.0) for t in targets]
        hits = [v for v in hits if v is not None]
        assert len(hits) > len(targets) // 2
        return np.r_[-1000.0, hits, 1.0]

    tx = near_halves(lambda x: _px(x, xlo, xhi), range(65, 743, 9))
    ty = near_halves(lambda y: -_py(y, ylo, yhi), range(-453, -37, 9))
    # without its Python fallback the table would misround many of these
    for v in (_px(tx, xlo, xhi), _py(ty, ylo, yhi)):
        rounded = [float(f"{c:.2f}") for c in v]
        assert np.count_nonzero(np.rint(100.0 * v) / 100.0 != rounded) > 50
    _check([Series("x", tx, np.linspace(-1000.0, 1.0, tx.size), ""),
            Series("y", np.linspace(-1000.0, 1.0, ty.size), ty, "")])


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


def _series(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [Series(f"s{i}", np.linspace(0.0, 1.0, k),
                   np.cumsum(rng.standard_normal(k)), "#000000")
            for i, k in enumerate(sizes)]


@pytest.mark.parametrize("sizes", [(5, 200, 17), (1, 40, 1), (3, 1),
                                   (0, 30, 7), (30, 0, 7), (30, 7, 0),
                                   (0, 1, 0, 0, 2, 0)],
                         ids=["unequal", "one-point", "one-point-last",
                              "empty-first", "empty-middle", "empty-last",
                              "empties-around-short"])
def test_polylines_split_per_series(sizes):
    svg = _check(_series(sizes))
    assert [len(p.split()) for p in _rendered_points(svg)] == list(sizes)


def test_evolution_shaped_plot_matches_reference():
    # forcing, ten stage snapshots and the solution, at n = 200
    _check(_series([201] * 12, seed=7))


@pytest.mark.parametrize("level", [1e17, -1e17, 5.0])
def test_flat_axis_is_widened_until_it_moves(level):
    x, flat = np.linspace(0.0, 1.0, 9), np.full(9, level)
    for s in (Series("flat y", x, flat, ""), Series("flat x", flat, x, "")):
        assert not re.search(r"\b(nan|inf)\b", _check([s]))


def test_flat_range_moves_by_one_on_each_side_that_one_moves():
    from fracbvp.svgplot import _widen
    assert _widen(5.0, 5.0) == (4.0, 6.0)
    # 2^53 + 1 rounds back to 2^53; 2^53 - 1 does not
    assert _widen(2.0 ** 53, 2.0 ** 53) == (2.0 ** 53 - 1, 2.0 ** 53 + 2)
    assert _widen(1e17, 1e17) == (1e17 - 16, 1e17 + 16)


def test_series_with_unequal_x_and_y_are_refused():
    with pytest.raises(ValueError):
        render_line_plot([Series("a", [0.0, 1.0], [1.0, 2.0, 3.0], ""),
                          Series("b", [0.0, 1.0, 2.0], [1.0, 2.0], "")], "t")


def _tick_labels(svg, anchor):
    """The tick labels of the x axis (``middle``) or the y axis (``end``)."""
    return re.findall(rf'<text [^>]*text-anchor="{anchor}" [^>]*'
                      rf'font-size="11">([^<]*)</text>', svg)


@pytest.mark.parametrize("y", [[1e17, 1e17], [1.0, 1.0 + 1e-6],
                               [-2e-5, -2e-5 + 1e-12]],
                         ids=["flat-1e17", "near-one", "small-negative"])
def test_neighbouring_tick_labels_differ(y):
    # ticks closer together than the default three or four significant
    # digits, as on the comparison plot of
    # run --case 3 --case3-a 1e17 --case3-c 2e19
    svg = _check([Series("a", [0.0, 1.0], y, "")])
    labels = _tick_labels(svg, "end")
    assert len(labels) >= 2
    assert all(a != b for a, b in zip(labels, labels[1:]))
    assert all(float(a) < float(b) for a, b in zip(labels, labels[1:]))


@pytest.mark.parametrize("top", [5e-324, 1e-323, 5e-323, 1e-310])
def test_subnormal_span_renders_finite_ticks(top):
    # (hi - lo) / 5 underflows to 0 below a few ulps of 0
    svg = _check([Series("a", [0.0, 1.0], [0.0, top], "")])
    labels = _tick_labels(svg, "end")
    assert labels and all(math.isfinite(float(v)) for v in labels)


@pytest.mark.parametrize("x, y", [([0.0, 1.0], [-1e308, 1e308]),
                                  ([0.0, 1.0], [0.0, 1.75e308]),
                                  ([-1e308, 1e308], [0.0, 1.0])],
                         ids=["y-span", "y-padding", "x-span"])
def test_span_beyond_the_float_range_renders_in_the_box(x, y):
    # hi - lo, or the y axis padding, overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = render_line_plot([Series("a", x, y, "")], "t")
    for anchor in ("middle", "end"):
        labels = [float(v) for v in _tick_labels(svg, anchor)]
        assert len(labels) >= 2 and all(map(math.isfinite, labels))
        assert labels == sorted(set(labels))
    (points,) = _rendered_points(svg)
    for point in points.split():
        px, py = map(float, point.split(","))
        assert MARGIN_L <= px <= WIDTH - MARGIN_R
        assert MARGIN_T <= py <= HEIGHT - MARGIN_B


# ---------------------------------------------------------------------------
# M4: series longer than four points per pixel column
# ---------------------------------------------------------------------------

def _frame(svg):
    """The plot area's left edge and width, in pixels."""
    left, width = re.search(
        rf'<rect x="(\d+)" y="{MARGIN_T}" width="(\d+)"', svg).groups()
    return int(left), int(width)


def _m4_reference(x, y, left, width):
    """Indices of the first, lowest, highest and last point of each pixel
    column, one column at a time."""
    px = left + (x - x.min()) / (x.max() - x.min()) * width
    columns = np.minimum((px - left).astype(int), width - 1)
    keep = set()
    for c in np.unique(columns):
        idx = np.flatnonzero(columns == c)
        keep |= {idx[0], idx[np.argmin(y[idx])], idx[np.argmax(y[idx])],
                 idx[-1]}
    keep = np.array(sorted(keep))
    return keep, columns[keep]


def test_long_series_keep_each_columns_first_lowest_highest_and_last():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, 100_000)
    y = np.sin(40.0 * x) + rng.normal(scale=0.3, size=x.size)
    short = Series("b", x[::2000], np.cos(x[::2000]), "")
    svg = render_line_plot([Series("a", x, y, ""), short], "t")
    left, width = _frame(svg)
    keep, columns = _m4_reference(x, y, left, width)
    assert np.bincount(columns).max() <= 4
    # the kept points span the same ranges, so they map to the same pixels
    assert svg == render_line_plot([Series("a", x[keep], y[keep], ""),
                                    short], "t")


def test_series_of_at_most_four_points_per_column_keep_every_point():
    count = 4 * (WIDTH - MARGIN_L - MARGIN_R)
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, count + 1)
    y = rng.uniform(size=count + 1)
    svg = _check([Series("a", x[:count], y[:count], "")])
    assert _frame(svg) == (MARGIN_L, count // 4)
    (points,) = _rendered_points(render_line_plot([Series("a", x, y, "")],
                                                  "t"))
    assert len(points.split()) < count
