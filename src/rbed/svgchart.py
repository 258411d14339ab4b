"""Minimal deterministic SVG line charts, no external dependencies.

Output is a pure function of the input series: fixed canvas, fixed float
formatting, no timestamps. A ``Series(label, first_x, ys)`` draws ys[i] at
x = ``first_x + i``: a curve over consecutive episodes needs no x list.
Each series renders as exactly one <polyline>; axes, grid, and reference
lines use <line> elements.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

WIDTH = 860
HEIGHT = 480
MARGIN_LEFT = 68
MARGIN_RIGHT = 18
MARGIN_TOP = 44
MARGIN_BOTTOM = 52
TICKS = 6  # about this many ticks per axis

PALETTE = ("#c0392b", "#7f8c8d", "#2e86c1", "#27ae60", "#8e44ad", "#d68910")


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text, as xml.sax.saxutils.escape
    does, without importing xml.sax (which pulls in urllib, http and ssl)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class Series(NamedTuple):
    """One labelled line: ``ys[i]`` is drawn at x = ``first_x + i``."""

    label: str
    first_x: int
    ys: Sequence[float]


def _nice_step(span: float) -> float:
    """The least of 1, 2, 5 or 10 times a power of ten at or above
    ``span / TICKS``; 0.0 where that power of ten underflows."""
    raw = span / TICKS
    magnitude = 10.0 ** math.floor(math.log10(raw)) if raw else 0.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _line(x1, y1, x2, y2, stroke: str, width: float, extra: str = "") -> str:
    """One <line>; ``extra`` holds further attributes, each after a space."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"{extra}/>'


def _text(x, y, size: int, text: str, anchor: str = "middle", extra: str = "") -> str:
    """One <text> holding ``text``, escaped; an empty ``anchor`` writes no
    text-anchor, and ``extra`` holds further attributes, each after a space."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    font = f'font-family="sans-serif" font-size="{size}"'
    return f'<text x="{x}" y="{y}"{anchor} {font}{extra}>{escape(text)}</text>'


def line_chart(
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[Series],
    y_max: Optional[float] = None,
    ref_y: Optional[float] = None,
    ref_label: str = "",
) -> str:
    """Render series as an SVG document string, charting y from 0 up."""
    if not series:
        raise ValueError("line_chart needs at least one series")
    if all(len(s.ys) == 0 for s in series):
        raise ValueError("line_chart needs at least one data point")
    if not all(math.isfinite(v) for s in series for v in s.ys):
        raise ValueError("line_chart needs finite y values")

    x_lo = min(s.first_x for s in series if s.ys)
    x_hi = max(s.first_x + len(s.ys) - 1 for s in series if s.ys)
    y_lo = 0.0
    y_hi = max(v for s in series for v in s.ys) if y_max is None else y_max
    if ref_y is not None:
        y_lo = min(y_lo, ref_y)
        y_hi = max(y_hi, ref_y)
    x_hi = max(x_hi, x_lo + 1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    span = (y_hi + pad) - (y_lo - pad)
    if not math.isfinite(span):
        raise ValueError(f"line_chart cannot chart y from {y_lo:g} to {y_hi:g}: the padded span overflows")
    if not _nice_step(span):
        raise ValueError(f"line_chart cannot chart y from {y_lo:g} to {y_hi:g}: the padded span underflows")
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    right, bottom, mid_y = MARGIN_LEFT + plot_w, MARGIN_TOP + plot_h, f"{MARGIN_TOP + plot_h / 2:.1f}"

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(f"{WIDTH / 2:.1f}", 24, 16, title),
    ]
    for t in _ticks(x_lo, x_hi):
        x = f"{px(t):.2f}"
        parts.append(_line(x, MARGIN_TOP, x, bottom, "#e6e6e6", 1))
        parts.append(_text(x, bottom + 18, 11, f"{t:g}"))
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(_line(MARGIN_LEFT, f"{y:.2f}", right, f"{y:.2f}", "#e6e6e6", 1))
        parts.append(_text(MARGIN_LEFT - 8, f"{y + 4:.2f}", 11, f"{t:g}", "end"))

    # axes on top of the grid
    parts.append(_line(MARGIN_LEFT, bottom, right, bottom, "#333333", 1.5))
    parts.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, bottom, "#333333", 1.5))
    parts.append(_text(f"{MARGIN_LEFT + plot_w / 2:.1f}", HEIGHT - 12, 13, x_label))
    parts.append(_text(18, mid_y, 13, y_label, extra=f' transform="rotate(-90 18 {mid_y})"'))

    if ref_y is not None:
        y = py(ref_y)
        dashes = ' stroke-dasharray="6 4"'
        parts.append(_line(MARGIN_LEFT, f"{y:.2f}", right, f"{y:.2f}", "#888888", 1.2, dashes))
        if ref_label:
            parts.append(_text(right - 4, f"{y - 6:.2f}", 11, ref_label, "end", ' fill="#666666"'))

    colors = [PALETTE[i % len(PALETTE)] for i in range(len(series))]
    for s, color in zip(series, colors):
        points = " ".join(f"{px(s.first_x + i):.2f},{py(y):.2f}" for i, y in enumerate(s.ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>')

    legend_x = MARGIN_LEFT + 12
    for i, (s, color) in enumerate(zip(series, colors)):
        y = MARGIN_TOP + 10 + i * 18
        parts.append(_line(legend_x, y, legend_x + 26, y, color, 2.5))
        parts.append(_text(legend_x + 32, y + 4, 12, s.label, ""))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
