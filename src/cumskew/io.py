"""CSV ingestion and result serialization.

Machine outputs (experiment CSV/JSON, lorenz TSV) carry full
shortest-round-trip float precision; the human-facing compute table is
trimmed to six significant digits.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .core import Sample, validate_sample
from .errors import ColumnNotFound, EmptyOrTooSmall, ParseError

__all__ = [
    "parse_csv",
    "format_number",
    "format_sig",
    "run_metadata",
    "write_rows_csv",
    "write_rows_json",
    "write_rows_tsv",
]


def _resolve_index(header_row: list[str], column) -> tuple[int, bool]:
    """Return (column index, first row is a header)."""
    if column is None:
        return 0, False
    text = str(column).strip()
    try:
        return int(text), False
    except ValueError:
        pass
    names = [cell.strip() for cell in header_row]
    if text not in names:
        raise ColumnNotFound(f"column {text!r} not found in header {names}")
    return names.index(text), True


def parse_csv(path, column=None) -> Sample:
    """Read one numeric column from a CSV file.

    Args:
        path: file to read (UTF-8, comma separated).
        column: optional selector; a 0-based index or a header name.
            Defaults to the first column.

    A header row is detected automatically: if the selected cell of the
    first row is not numeric it is skipped.  Blank lines are ignored.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), 1)
                if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyOrTooSmall("no data rows in file")

    first_line, first_row = rows[0]
    idx, header = _resolve_index(first_row, column)
    if idx < 0 or idx >= len(first_row):
        raise ColumnNotFound(
            f"column index {idx} out of range for {len(first_row)} column(s)")
    if not header:
        try:
            float(first_row[idx])
        except ValueError:
            header = True  # non-numeric first cell means a header row

    values = []
    for lineno, row in rows[1:] if header else rows:
        if idx >= len(row):
            raise ParseError(lineno, f"row has no column {idx}")
        cell = row[idx].strip()
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(lineno, f"could not parse {cell!r} as a number") from None
    return validate_sample(values)


def format_number(value) -> str:
    """Full-precision text for numbers; shortest round-trip for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_sig(value: float, digits: int = 6) -> str:
    """Trim a float to a fixed number of significant digits."""
    if value == 0 or not math.isfinite(value):
        return str(value)
    return f"{value:.{digits}g}"


def run_metadata(command: str, seed: int | None = None, **settings) -> dict:
    """Provenance block written into every result file.

    Contains no timestamps, so identical runs serialize byte-identically.
    """
    from . import __version__

    meta = {
        "tool": f"cumskew {__version__}",
        "command": command,
        "rng": "pcg64",
        "normal_method": f"numpy-{np.__version__} standard_normal (ziggurat)",
        "cs_footing": "gap vector n*g_i = i*mean - S_i, no shift",
        "b1_definition": "population m3/m2^1.5",
    }
    if seed is not None:
        meta["seed"] = seed
    meta.update(settings)
    return meta


def write_rows_csv(fh, fieldnames: list[str], rows: list[dict], meta: dict | None = None) -> None:
    """CSV with '# key=value' provenance comments above the header."""
    if meta:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([format_number(row[name]) for name in fieldnames])


def write_rows_json(fh, rows: list[dict], meta: dict | None = None) -> None:
    payload = {"meta": meta or {}, "rows": rows}
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def write_rows_tsv(fh, fieldnames: list[str], rows: list[dict]) -> None:
    """Plot-ready TSV; missing fields serialize as empty cells."""
    fh.write("\t".join(fieldnames) + "\n")
    for row in rows:
        cells = [format_number(row[name]) if name in row else ""
                 for name in fieldnames]
        fh.write("\t".join(cells) + "\n")
