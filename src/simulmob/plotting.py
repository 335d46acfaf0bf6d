"""Static plot rendering for position series.

Both renderers are deterministic: equal inputs give byte-identical output,
so plots can participate in golden comparisons. SVG is written by hand for
that reason; a plotting library would not guarantee stable bytes across
versions. SVG text is escaped, so any title (an input path) gives a
well-formed file, and ASCII axis labels widen to fit their values.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import chain

from .model import MAGNITUDE_LIMIT
from .traceio import _pieces

_WIDTH = 720
_HEIGHT = 480
_ASCII_HEIGHT = 21
_ASCII_MAX_WIDTH = 72
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 44
_MN0_COLOR = "#1f77b4"
_MN1_COLOR = "#d62728"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _line(x1: object, y1: object, x2: object, y2: object,
          stroke: str = "black", dash: str = "") -> str:
    """A line; ``dash``, when given, is its stroke-dasharray."""
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}"{dash}/>')


def _text(x: object, y: object, size: int, body: object, anchor: str = "",
          fill: str = "") -> str:
    """A monospace label; ``anchor`` and ``fill`` are written only if given.

    ``body`` is escaped, so any title (a file path, say) stays well-formed.
    """
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(
        ">", "&gt;")
    extra = f' text-anchor="{anchor}"' if anchor else ""
    extra += f' fill="{fill}"' if fill else ""
    return (f'<text x="{x}" y="{y}" font-family="monospace" '
            f'font-size="{size}"{extra}>{body}</text>')


def _value_range(mn0: Sequence[float], mn1: Sequence[float],
                 brink: float) -> tuple[float, float]:
    """Lowest and highest of both series and the brink, as distinct floats.

    Equal ends move ``hi`` one unit up, or one float step where that is
    wider. A value of magnitude ``MAGNITUDE_LIMIT`` or more raises ValueError.
    """
    if not mn0 or len(mn0) != len(mn1):
        raise ValueError("need two equal-length non-empty series")
    lo = min(min(mn0), min(mn1), brink)
    hi = max(max(mn0), max(mn1), brink)
    if max(-lo, hi) >= MAGNITUDE_LIMIT:
        raise ValueError("cannot plot a position or brink of magnitude "
                         f"{MAGNITUDE_LIMIT:.0e} or more")
    lo, hi = float(lo), float(hi)
    return lo, hi if hi > lo else lo + max(1.0, math.ulp(lo))


def render_svg(
    mn0: Sequence[float],
    mn1: Sequence[float],
    brink: float,
    chained: bool,
    title: str,
    xlabel: str,
) -> Iterator[str]:
    """Render position-vs-index series for both nodes plus the brink line.

    Chained series draw as polylines (a walk), unchained as scatter points
    (independent trials). The values are checked on the call, so a series
    that cannot be drawn raises before any text; the points' text is then
    made as it is read, in pieces of at most 1,024 points.
    """
    lo, hi = _value_range(mn0, mn1, brink)
    pad = (hi - lo) * 0.05
    lo, hi = lo - pad, hi + pad
    n = len(mn0)
    # Affine map from data coordinates to the plot rectangle.
    x0, x1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    y0, y1 = _MARGIN_TOP, _HEIGHT - _MARGIN_BOTTOM

    def x_of(index: int) -> float:
        if n <= 1:
            return (x0 + x1) / 2
        return x0 + (x1 - x0) * index / (n - 1)

    def y_of(value: float) -> float:
        return y1 - (y1 - y0) * ((value - lo) / (hi - lo))

    def points(series: Sequence[float], color: str) -> Iterator[str]:
        xy = ((_fmt(x_of(i)), _fmt(y_of(v))) for i, v in enumerate(series))
        if chained:
            return chain(['<polyline points="'], _pieces("%s,%s", xy, " "),
                         [f'" fill="none" stroke="{color}" stroke-width="2"/>\n'])
        return chain(_pieces(f'<circle cx="%s" cy="%s" r="3" fill="{color}"/>',
                             xy, "\n"), ["\n"])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(_WIDTH // 2, 24, 14, title, "middle"),
        # Axes.
        _line(x0, y1, x1, y1),
        _line(x0, y0, x0, y1),
        _text((x0 + x1) // 2, _HEIGHT - 8, 12, xlabel, "middle"),
    ]
    # Value ticks on the y axis, five evenly spaced.
    for i in range(5):
        value = lo + (hi - lo) * i / 4
        y = y_of(value)
        parts.append(_line(x0 - 4, _fmt(y), x0, _fmt(y)))
        parts.append(_text(x0 - 8, _fmt(y + 4), 11, _fmt(value), "end"))
    # Index ticks on the x axis.
    for index in sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1}):
        x = _fmt(x_of(index))
        parts.append(_line(x, y1, x, y1 + 4))
        parts.append(_text(x, y1 + 18, 11, index, "middle"))
    # Brink plane.
    by = y_of(brink)
    parts.append(_line(x0, _fmt(by), x1, _fmt(by), "gray", "6,4"))
    parts.append(_text(x1 - 4, _fmt(by - 6), 11, f"brink {_fmt(brink)}",
                       "end", "gray"))
    # Legend, top-right corner of the plot rectangle; drawn after the series.
    legend = []
    for slot, (label, color) in enumerate((("MN_0", _MN0_COLOR), ("MN_1", _MN1_COLOR))):
        y = y0 + 14 + slot * 16
        legend.append(
            f'<rect x="{x1 - 84}" y="{y - 8}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        legend.append(_text(x1 - 70, y, 11, label))
    legend.append("</svg>")
    return chain(["\n".join(parts) + "\n"], points(mn0, _MN0_COLOR),
                 points(mn1, _MN1_COLOR), ["\n".join(legend) + "\n"])


def render_ascii(
    mn0: Sequence[float],
    mn1: Sequence[float],
    brink: float,
) -> str:
    """Character plot: '0' node 0, '1' node 1, 'X' both, '-' the brink row.

    Long series are strided down to ``_ASCII_MAX_WIDTH`` columns.
    """
    lo, hi = _value_range(mn0, mn1, brink)
    n = len(mn0)
    stride = max(1, math.ceil(n / _ASCII_MAX_WIDTH))
    indexes = range(0, n, stride)
    cols = len(indexes)

    def row_of(value: float) -> int:
        frac = (value - lo) / (hi - lo)
        return round((1 - frac) * (_ASCII_HEIGHT - 1))

    grid = [[" "] * cols for _ in range(_ASCII_HEIGHT)]
    brink_row = row_of(brink)
    for col, i in enumerate(indexes):
        r0 = row_of(mn0[i])
        r1 = row_of(mn1[i])
        grid[r0][col] = "0"
        grid[r1][col] = "X" if r1 == r0 else "1"
    for col in range(cols):
        if grid[brink_row][col] == " ":
            grid[brink_row][col] = "-"

    # The top and bottom rows are labelled hi and lo, over the brink's label
    # if it shares their row; labels right-align to at least 8 columns.
    labels = {brink_row: f"{brink:.1f}", 0: f"{hi:.1f}",
              _ASCII_HEIGHT - 1: f"{lo:.1f}"}
    width = max(8, *map(len, labels.values()))
    lines = [f"{labels.get(row, ''):>{width}} |{''.join(grid[row])}"
             for row in range(_ASCII_HEIGHT)]
    lines.append(f"{' ' * width} +{'-' * cols}")
    tail = f" (stride {stride})" if stride > 1 else ""
    lines.append(f"{' ' * width}  index 0..{n - 1}{tail}")
    return "\n".join(lines) + "\n"
