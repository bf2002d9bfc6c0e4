"""CSV ingestion and result serialization.

Machine outputs (experiment CSV/JSON, lorenz TSV) carry full
shortest-round-trip float precision; the human-facing compute table is
trimmed to six significant digits.
"""

from __future__ import annotations

import csv
import json
import math
from array import array

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


def _resolve_index(first_row: list[str], column) -> tuple[int, bool]:
    """The selected column's index, and whether the first non-blank row is
    a header: it is when the column is named, or when its cell there is not
    numeric."""
    text = "0" if column is None else str(column).strip()
    try:
        idx = int(text)
    except ValueError:
        names = [cell.strip() for cell in first_row]
        if text not in names:
            raise ColumnNotFound(f"column {text!r} not found in header {names}") from None
        return names.index(text), True
    if not 0 <= idx < len(first_row):
        raise ColumnNotFound(
            f"column index {idx} out of range for {len(first_row)} column(s)")
    try:
        float(first_row[idx])
    except ValueError:
        return idx, True  # non-numeric first cell means a header row
    return idx, False


def parse_csv(path, column=None) -> Sample:
    """Read one numeric column from a CSV file.

    Args:
        path: file to read (UTF-8, with or without a byte-order mark,
            comma separated).
        column: optional selector; a 0-based index or a header name.
            Defaults to the first column.

    A header row is detected automatically: if the selected cell of the
    first row is not numeric it is skipped.  Blank lines are ignored.
    Cells are converted as they are read, so only the selected column is
    held in memory.  A ParseError names the physical line on which the
    offending row starts, also after quoted cells that span lines.
    """
    values = array("d")  # 8 bytes a value, where a list of floats takes 32
    idx = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            end = 0
            for row in reader:
                # a quoted cell can span lines: name the line the row starts on
                start, end = end + 1, reader.line_num
                if not any(cell.strip() for cell in row):
                    continue
                if idx is None:
                    idx, header = _resolve_index(row, column)
                    if header:
                        continue
                if idx >= len(row):
                    raise ParseError(start, f"row has no column {idx}")
                cell = row[idx].strip()
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(start, f"could not parse {cell!r} as a number") from None
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    except UnicodeDecodeError:
        raise _undecodable(path, reader.line_num + 1) from None
    if idx is None:
        raise EmptyOrTooSmall("no data rows in file")
    return validate_sample(values)


def _undecodable(path, line: int) -> ParseError:
    """The error for the first byte of `path` that is not UTF-8.

    The text layer decodes ahead of the reader, in chunks, so the byte's
    line is found by reading the file's bytes again; LF, CRLF and a lone CR
    each end a line, as they do for the reader.  `line` stands if the file
    no longer holds such a byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ParseError(line, f"invalid UTF-8 byte 0x{data[exc.start]:02x}")
    return ParseError(line, "invalid UTF-8")


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


def write_rows_csv(fh, rows: list[dict], meta: dict | None = None) -> None:
    """CSV with '# key=value' provenance comments above the header, which
    is the first row's keys; every row has them in that order."""
    if meta:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
    writer = csv.writer(fh, lineterminator="\n")
    if rows:
        writer.writerow(rows[0])
    writer.writerows(map(format_number, row.values()) for row in rows)


def write_rows_json(fh, rows: list[dict], meta: dict | None = None) -> None:
    payload = {"meta": meta or {}, "rows": rows}
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def write_rows_tsv(fh, columns: dict) -> None:
    """Plot-ready TSV from equal-length columns, headed by their names."""
    fh.write("\t".join(columns) + "\n")
    for row in zip(*columns.values(), strict=True):
        fh.write("\t".join(map(format_number, row)) + "\n")
