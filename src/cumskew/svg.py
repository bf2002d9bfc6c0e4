"""Minimal SVG rendering of a Lorenz curve with weighted gap segments,
streamed to a text file."""

from __future__ import annotations

import math

import numpy as np

from .core import LorenzGrid
from .errors import FloatRangeError
from .io import _GRID_ROWS

SIZE = 600
MARGIN = 60
GAP_COLORS = {"neg": "crimson", "pos": "seagreen", "zero": "silver"}


def _x(v):
    return MARGIN + v * (SIZE - 2 * MARGIN)


def _y(v):
    return SIZE - MARGIN - v * (SIZE - 2 * MARGIN)


def lorenz_svg(grid: LorenzGrid, fh) -> None:
    """Write into the text file `fh` the curve, the 45-degree line, and gap
    segments colored by the sign of their weight, in a fixed 600x600
    viewport.

    Gap i's weight (2i - n) * 3 / n (`weight_vector`) has the sign of
    p_i - 1/2, and p_i = i/n is read from the grid, so no weight is built:
    the rounded i/n is below, at or above 1/2 exactly when 2i is below, at
    or above n, for any n below 2**53.

    The gap segments and the polyline's points are written
    `io._GRID_ROWS` grid points at a time, as the TSV's rows are: pixel
    coordinates are computed for one slice of the grid by `_x` and `_y`,
    giving the doubles the scalar calls give, and each segment and vertex
    is formatted by one template.  So no per-point list, and no whole
    document, is ever held; a caller that wants the document as a string
    passes an `io.StringIO`.

    Raises:
        FloatRangeError: a point's pixel coordinate is beyond the float
            range, as for a canonical curve whose gaps, in the data's
            units, exceed about 1e305; nothing is written.
    """
    # the coordinates are linear in q, so they are finite if its ends' are
    if not all(math.isfinite(_y(float(v))) for v in (grid.q.min(), grid.q.max())):
        raise FloatRangeError("the Lorenz curve cannot be drawn within the float range")
    fh.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">\n'
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>\n'
        f'<rect x="{_x(0):.1f}" y="{_y(1):.1f}" width="{SIZE - 2 * MARGIN}" '
        f'height="{SIZE - 2 * MARGIN}" fill="none" stroke="#444"/>\n'
        f'<line x1="{_x(0):.1f}" y1="{_y(0):.1f}" x2="{_x(1):.1f}" y2="{_y(1):.1f}" '
        f'stroke="gray" stroke-width="1.5"/>\n')
    colors = np.array(list(GAP_COLORS.values()), dtype=object)  # neg, pos, zero
    segment = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" '
               'stroke-width="1" stroke-dasharray="4 3"/>\n')
    for start in range(0, len(grid.p), _GRID_ROWS):
        part = slice(start, start + _GRID_ROWS)
        p = grid.p[part]
        x = _x(p).tolist()
        color = colors[np.where(p < 0.5, 0, np.where(p > 0.5, 1, 2))]
        fh.write("".join(map(segment.__mod__, zip(
            x, _y(p).tolist(), x, _y(grid.q[part]).tolist(), color))))
    # the polyline runs from (0,0) through every grid point to (1,1)
    fh.write('<polyline points="%.2f,%.2f' % (_x(0.0), _y(0.0)))
    for start in range(0, len(grid.p), _GRID_ROWS):
        part = slice(start, start + _GRID_ROWS)
        fh.write("".join(map(" %.2f,%.2f".__mod__, zip(
            _x(grid.p[part]).tolist(), _y(grid.q[part]).tolist()))))
    fh.write(' %.2f,%.2f" fill="none" stroke="#222" stroke-width="2"/>\n'
             % (_x(1.0), _y(1.0)))

    legend = [("w < 0", "neg"), ("w > 0", "pos"), ("w = 0", "zero")]
    for k, (label, key) in enumerate(legend):
        y = MARGIN + 16 + 18 * k
        fh.write(f'<line x1="{MARGIN + 10}" y1="{y}" x2="{MARGIN + 40}" y2="{y}" '
                 f'stroke="{GAP_COLORS[key]}" stroke-width="2" '
                 f'stroke-dasharray="4 3"/>\n'
                 f'<text x="{MARGIN + 46}" y="{y + 4}" font-size="13" '
                 f'font-family="sans-serif">{label}</text>\n')
    fh.write("</svg>\n")
