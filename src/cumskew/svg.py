"""Minimal SVG rendering of a Lorenz curve with weighted gap segments."""

from __future__ import annotations

import numpy as np

from .core import LorenzGrid

SIZE = 600
MARGIN = 60
GAP_COLORS = {"neg": "crimson", "pos": "seagreen", "zero": "silver"}


def _x(v: float) -> float:
    return MARGIN + v * (SIZE - 2 * MARGIN)


def _y(v: float) -> float:
    return SIZE - MARGIN - v * (SIZE - 2 * MARGIN)


def _sign(w: float) -> str:
    if w < 0:
        return "neg"
    if w > 0:
        return "pos"
    return "zero"


def lorenz_svg(grid: LorenzGrid, weights: np.ndarray) -> str:
    """Render the curve, the 45-degree line, and gap segments colored by
    the sign of their weight (`weight_vector(grid.n)`), in a fixed 600x600
    viewport."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<rect x="{_x(0):.1f}" y="{_y(1):.1f}" width="{SIZE - 2 * MARGIN}" '
        f'height="{SIZE - 2 * MARGIN}" fill="none" stroke="#444"/>',
        f'<line x1="{_x(0):.1f}" y1="{_y(0):.1f}" x2="{_x(1):.1f}" y2="{_y(1):.1f}" '
        f'stroke="gray" stroke-width="1.5"/>',
    ]
    for p, q, w in zip(grid.p, grid.q, weights):
        parts.append(
            f'<line x1="{_x(p):.2f}" y1="{_y(p):.2f}" x2="{_x(p):.2f}" '
            f'y2="{_y(q):.2f}" stroke="{GAP_COLORS[_sign(w)]}" '
            f'stroke-width="1" stroke-dasharray="4 3"/>'
        )
    pts = [(0.0, 0.0), *zip(grid.p, grid.q), (1.0, 1.0)]
    path = " ".join(f"{_x(p):.2f},{_y(q):.2f}" for p, q in pts)
    parts.append(f'<polyline points="{path}" fill="none" stroke="#222" '
                 f'stroke-width="2"/>')

    legend = [("w < 0", "neg"), ("w > 0", "pos"), ("w = 0", "zero")]
    for k, (label, key) in enumerate(legend):
        y = MARGIN + 16 + 18 * k
        parts.append(f'<line x1="{MARGIN + 10}" y1="{y}" x2="{MARGIN + 40}" y2="{y}" '
                     f'stroke="{GAP_COLORS[key]}" stroke-width="2" '
                     f'stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{MARGIN + 46}" y="{y + 4}" font-size="13" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
