"""Static plot rendering for position series.

Both renderers are deterministic: equal inputs give byte-identical output,
so plots can participate in golden comparisons. SVG is written by hand for
that reason; a plotting library would not guarantee stable bytes across
versions.
"""

from __future__ import annotations

import math
from typing import Sequence

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


def _value_range(mn0: Sequence[float], mn1: Sequence[float],
                 brink: float) -> tuple[float, float]:
    """Lowest and highest of both series and the brink, never equal."""
    if not mn0 or len(mn0) != len(mn1):
        raise ValueError("need two equal-length non-empty series")
    lo = min(min(mn0), min(mn1), brink)
    hi = max(max(mn0), max(mn1), brink)
    return lo, hi if hi > lo else lo + 1.0


class _Scale:
    """Affine map from data coordinates to the SVG plot rectangle."""

    def __init__(self, n: int, lo: float, hi: float):
        self.n = n
        self.lo = lo
        self.hi = hi
        self.x0 = _MARGIN_LEFT
        self.x1 = _WIDTH - _MARGIN_RIGHT
        self.y0 = _MARGIN_TOP
        self.y1 = _HEIGHT - _MARGIN_BOTTOM

    def x(self, index: int) -> float:
        if self.n <= 1:
            return (self.x0 + self.x1) / 2
        return self.x0 + (self.x1 - self.x0) * index / (self.n - 1)

    def y(self, value: float) -> float:
        frac = (value - self.lo) / (self.hi - self.lo)
        return self.y1 - (self.y1 - self.y0) * frac


def render_svg(
    mn0: Sequence[float],
    mn1: Sequence[float],
    brink: float,
    chained: bool,
    title: str,
    xlabel: str,
) -> str:
    """Render position-vs-index series for both nodes plus the brink line.

    Chained series draw as polylines (a walk), unchained as scatter points
    (independent trials).
    """
    lo, hi = _value_range(mn0, mn1, brink)
    n = len(mn0)
    pad = (hi - lo) * 0.05
    scale = _Scale(n, lo - pad, hi + pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" font-family="monospace" '
        f'font-size="14" text-anchor="middle">{title}</text>',
    ]
    # Axes.
    parts.append(
        f'<line x1="{scale.x0}" y1="{scale.y1}" x2="{scale.x1}" '
        f'y2="{scale.y1}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{scale.x0}" y1="{scale.y0}" x2="{scale.x0}" '
        f'y2="{scale.y1}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(scale.x0 + scale.x1) // 2}" y="{_HEIGHT - 8}" '
        f'font-family="monospace" font-size="12" text-anchor="middle">'
        f"{xlabel}</text>"
    )
    # Value ticks on the y axis, five evenly spaced.
    for i in range(5):
        value = scale.lo + (scale.hi - scale.lo) * i / 4
        y = scale.y(value)
        parts.append(
            f'<line x1="{scale.x0 - 4}" y1="{_fmt(y)}" x2="{scale.x0}" '
            f'y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{scale.x0 - 8}" y="{_fmt(y + 4)}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{_fmt(value)}</text>'
        )
    # Index ticks on the x axis.
    for index in sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1}):
        x = scale.x(index)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{scale.y1}" x2="{_fmt(x)}" '
            f'y2="{scale.y1 + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{scale.y1 + 18}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{index}</text>'
        )
    # Brink plane.
    by = scale.y(brink)
    parts.append(
        f'<line x1="{scale.x0}" y1="{_fmt(by)}" x2="{scale.x1}" '
        f'y2="{_fmt(by)}" stroke="gray" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{scale.x1 - 4}" y="{_fmt(by - 6)}" font-family="monospace" '
        f'font-size="11" text-anchor="end" fill="gray">brink {_fmt(brink)}</text>'
    )
    # Series.
    for series, color in ((mn0, _MN0_COLOR), (mn1, _MN1_COLOR)):
        if chained:
            points = " ".join(
                f"{_fmt(scale.x(i))},{_fmt(scale.y(v))}"
                for i, v in enumerate(series)
            )
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
        else:
            for i, v in enumerate(series):
                parts.append(
                    f'<circle cx="{_fmt(scale.x(i))}" cy="{_fmt(scale.y(v))}" '
                    f'r="3" fill="{color}"/>'
                )
    # Legend, top-right corner of the plot rectangle.
    for slot, (label, color) in enumerate((("MN_0", _MN0_COLOR), ("MN_1", _MN1_COLOR))):
        y = scale.y0 + 14 + slot * 16
        parts.append(
            f'<rect x="{scale.x1 - 84}" y="{y - 8}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{scale.x1 - 70}" y="{y}" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
        row = round((1 - frac) * (_ASCII_HEIGHT - 1))
        return min(max(row, 0), _ASCII_HEIGHT - 1)

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

    lines = []
    for row in range(_ASCII_HEIGHT):
        if row == 0:
            label = f"{hi:8.1f}"
        elif row == _ASCII_HEIGHT - 1:
            label = f"{lo:8.1f}"
        elif row == brink_row:
            label = f"{brink:8.1f}"
        else:
            label = " " * 8
        lines.append(f"{label} |{''.join(grid[row])}")
    lines.append(f"{' ' * 8} +{'-' * cols}")
    tail = f" (stride {stride})" if stride > 1 else ""
    lines.append(f"{' ' * 8}  index 0..{n - 1}{tail}")
    return "\n".join(lines) + "\n"
