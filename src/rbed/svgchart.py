"""Minimal deterministic SVG line charts, no external dependencies.

Output is a pure function of the input series: fixed canvas, fixed float
formatting, no timestamps. Each data series renders as exactly one
<polyline>; axes, grid, and reference lines use <line> elements.
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


class _SeriesFields(NamedTuple):
    label: str
    xs: Sequence[float]
    ys: Sequence[float]


class Series(_SeriesFields):
    """One labelled line. A ``NamedTuple`` body cannot define ``__new__``,
    so the length check lives in this subclass."""

    __slots__ = ()

    def __new__(cls, label: str, xs: Sequence[float], ys: Sequence[float]) -> Series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: xs and ys lengths differ")
        return super().__new__(cls, label, xs, ys)


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
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:g}"


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
    if all(len(s.xs) == 0 for s in series):
        raise ValueError("line_chart needs at least one data point")
    if not all(math.isfinite(v) for s in series for v in s.ys):
        raise ValueError("line_chart needs finite y values")

    x_lo = min(min(s.xs) for s in series if s.xs)
    x_hi = max(max(s.xs) for s in series if s.xs)
    y_lo = 0.0
    y_hi = max(v for s in series for v in s.ys) if y_max is None else y_max
    if ref_y is not None:
        y_lo = min(y_lo, ref_y)
        y_hi = max(y_hi, ref_y)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
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

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]

    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_TOP}" x2="{_fmt(x)}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#e6e6e6" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{MARGIN_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(y)}" stroke="#e6e6e6" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )

    # axes on top of the grid
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.1f})">{escape(y_label)}</text>'
    )

    if ref_y is not None:
        y = py(ref_y)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(y)}" stroke="#888888" stroke-width="1.2" stroke-dasharray="6 4"/>'
        )
        if ref_label:
            parts.append(
                f'<text x="{MARGIN_LEFT + plot_w - 4}" y="{_fmt(y - 6)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="#666666">{escape(ref_label)}</text>'
            )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>'
        )

    legend_x = MARGIN_LEFT + 12
    legend_y = MARGIN_TOP + 10
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + i * 18
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{legend_x + 32}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{escape(s.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
