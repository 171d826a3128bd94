"""Minimal polyline SVG charts; no plotting dependency.

Plots are derived views: they never feed back into numeric outputs. Axes can
be log-scaled per call; ticks are five evenly spaced labels on the
transformed scale.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 28, 44
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _transform(values: Sequence[float], log: bool) -> list:
    if not log:
        return [float(v) for v in values]
    out = []
    for v in values:
        if v <= 0:
            raise ValueError(f"log axis requires positive values, got {v}")
        out.append(math.log10(v))
    return out


def _ticks(lo: float, hi: float, log: bool) -> list:
    span = hi - lo
    raw = [lo + span * i / 4.0 for i in range(5)]
    if log:
        return [(t, f"{10.0 ** t:.3g}") for t in raw]
    return [(t, f"{t:.3g}") for t in raw]


def polyline_svg(
    series: Sequence[tuple],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render (label, xs, ys) series as a standalone SVG document string."""
    if not series:
        raise ValueError("nothing to plot")
    txs, tys = [], []
    rendered = []
    for label, xs, ys in series:
        if len(xs) != len(ys) or len(xs) == 0:
            raise ValueError(f"series {label!r} needs matching nonempty x/y")
        x = _transform(xs, logx)
        y = _transform(ys, logy)
        txs += x
        tys += y
        rendered.append((str(label), x, y))
    xlo, xhi = min(txs), max(txs)
    ylo, yhi = min(tys), max(tys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    xpad, ypad = 0.05 * (xhi - xlo), 0.05 * (yhi - ylo)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + plot_w * (x - xlo) / (xhi - xlo)

    def py(y: float) -> float:
        return MARGIN_T + plot_h * (yhi - y) / (yhi - ylo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    axis = (
        f'<path d="M {px(xlo):.2f} {py(ylo):.2f} L {px(xhi):.2f} {py(ylo):.2f} '
        f'M {px(xlo):.2f} {py(ylo):.2f} L {px(xlo):.2f} {py(yhi):.2f}" '
        'stroke="black" fill="none"/>'
    )
    parts.append(axis)
    for t, label in _ticks(xlo, xhi, logx):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{py(ylo):.2f}" x2="{px(t):.2f}" '
            f'y2="{py(ylo) + 4:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{py(ylo) + 16:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
    for t, label in _ticks(ylo, yhi, logy):
        parts.append(
            f'<line x1="{px(xlo) - 4:.2f}" y1="{py(t):.2f}" x2="{px(xlo):.2f}" '
            f'y2="{py(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(xlo) - 6:.2f}" y="{py(t) + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {MARGIN_T + plot_h / 2:.0f})">{ylabel}</text>'
    )
    for i, (label, x, y) in enumerate(rendered):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 14 + 14 * i}" '
            f'text-anchor="end" font-family="sans-serif" font-size="10" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
