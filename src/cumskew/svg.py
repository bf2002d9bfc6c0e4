"""Minimal SVG rendering of a Lorenz curve with weighted gap segments."""

from __future__ import annotations

import numpy as np

from .core import LorenzGrid, weight_vector

SIZE = 600
MARGIN = 60
GAP_COLORS = {"neg": "crimson", "pos": "seagreen", "zero": "silver"}


def _x(v):
    return MARGIN + v * (SIZE - 2 * MARGIN)


def _y(v):
    return SIZE - MARGIN - v * (SIZE - 2 * MARGIN)


def lorenz_svg(grid: LorenzGrid) -> str:
    """Render the curve, the 45-degree line, and gap segments colored by
    the sign of their weight (`weight_vector(grid.n)`), in a fixed 600x600
    viewport.

    Pixel coordinates are computed for whole arrays by `_x` and `_y`,
    giving the doubles the scalar calls give, and each gap segment and
    polyline vertex is formatted by one template.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<rect x="{_x(0):.1f}" y="{_y(1):.1f}" width="{SIZE - 2 * MARGIN}" '
        f'height="{SIZE - 2 * MARGIN}" fill="none" stroke="#444"/>',
        f'<line x1="{_x(0):.1f}" y1="{_y(0):.1f}" x2="{_x(1):.1f}" y2="{_y(1):.1f}" '
        f'stroke="gray" stroke-width="1.5"/>',
    ]
    x = _x(np.concatenate(([0.0], grid.p, [1.0]))).tolist()
    yq = _y(np.concatenate(([0.0], grid.q, [1.0]))).tolist()
    w = weight_vector(grid.n)
    colors = np.array(list(GAP_COLORS.values()), dtype=object)  # neg, pos, zero
    color = colors[np.where(w < 0, 0, np.where(w > 0, 1, 2))]
    segment = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" '
               'stroke-width="1" stroke-dasharray="4 3"/>')
    xp = x[1:-1]
    parts += map(segment.__mod__, zip(xp, _y(grid.p).tolist(), xp, yq[1:-1], color))
    path = " ".join(map("%.2f,%.2f".__mod__, zip(x, yq)))
    del x, xp, yq, color  # the document below is the peak of a large grid
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
    parts += ["</svg>", ""]  # ends the document with a newline, without a copy
    return "\n".join(parts)
