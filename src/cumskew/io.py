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
from itertools import chain, islice

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
    The file is read in one streaming pass that holds only the selected
    column.  numpy's C reader converts it; where that reader refuses the
    file, the `csv` loop `_parse_rows` reads it again and decides the
    result, so every error comes from that loop, the first in file order:
    a ParseError names the physical line on which the offending row starts,
    also after quoted cells that span lines, or the line of a byte that is
    not UTF-8.
    """
    values = _read_column(path, column)
    if values is None:
        values = _parse_rows(path, column)
    return validate_sample(values)


def _read_column(path, column) -> np.ndarray | None:
    """The selected column through `np.loadtxt`, or None where the `csv`
    loop must decide.

    numpy converts a cell exactly as `float()` does or refuses it
    (underscores, non-ASCII digits, empty cells, NUL, whitespace-only or
    comma-only lines), so any refusal, an empty body or a non-finite value
    hands the file back to the loop, which finds the line to report.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = csv.reader(fh)
            first = next((row for row in rows if any(cell.strip() for cell in row)), None)
            if first is None:
                return None
            idx, header = _resolve_index(first, column)
            lines = _bounded_lines(fh)
            # blank lines between rows are skipped as the loop skips them;
            # an empty body would make numpy warn "input contained no data"
            head = next((line for line in lines if line.strip()), None)
            if head is None:
                return None
            body = np.loadtxt(chain([head], lines), delimiter=",", usecols=idx,
                              comments=None, quotechar='"', dtype=float, ndmin=1)
        except (ValueError, csv.Error):
            return None
    if not header:
        body = np.concatenate(([float(first[idx].strip())], body))
    if not np.isfinite(body).all():
        return None
    return body


def _bounded_lines(fh):
    """The lines of `fh`, refusing one longer than the `csv` field limit:
    the loop raises on an over-long cell in any column, the C reader would not."""
    limit = csv.field_size_limit()
    for line in fh:
        if len(line) > limit:
            raise ValueError("line longer than the csv field limit")
        yield line


def _parse_rows(path, column) -> array:
    """The selected column by one loop over `csv.reader`, converting each
    cell with `float()` as it is read; every ParseError of `parse_csv`
    comes from here, the first in file order."""
    values = array("d")  # 8 bytes a value, where a list of floats takes 32
    idx = None
    try:
        with open(path, newline="", encoding="utf-8-sig",
                  errors="surrogateescape") as fh:
            reader = csv.reader(_utf8_lines(fh))
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
                    value = float(cell)
                except ValueError:
                    raise ParseError(start, f"could not parse {cell!r} as a number") from None
                if not math.isfinite(value):
                    raise ParseError(start, f"non-finite value {value!r} from {cell!r}")
                values.append(value)
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    if idx is None:
        raise EmptyOrTooSmall("no data rows in file")
    return values


def _utf8_lines(fh):
    """The lines of `fh`, read with errors="surrogateescape", numbered as
    `csv.reader` numbers them; the first line holding a byte that is not
    UTF-8, which the decoder escaped to U+DC80..U+DCFF, raises a ParseError
    naming that line and byte."""
    for line_num, line in enumerate(fh, 1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ParseError(line_num, f"invalid UTF-8 byte 0x{byte:02x}") from None
        yield line


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


def write_rows_tsv(fh, columns: dict, first, last) -> None:
    """Plot-ready TSV headed by the column names: the row `first`, one row
    per position of the equal-length columns, then the row `last`.

    The columns hold ints and floats and go through one `%r` template per
    row, which gives a float's shortest round-trip text, written a few
    thousand rows at a time; the cells of `first` and `last` are written
    by `format_number`.
    """
    template = "\t".join(["%r"] * len(columns)) + "\n"
    fh.write("\t".join(columns) + "\n")
    fh.write("\t".join(map(format_number, first)) + "\n")
    rows = zip(*columns.values(), strict=True)
    while chunk := "".join(map(template.__mod__, islice(rows, 4096))):
        fh.write(chunk)
    fh.write("\t".join(map(format_number, last)) + "\n")
