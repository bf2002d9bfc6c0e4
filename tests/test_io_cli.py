import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from fractions import Fraction
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumskew import ColumnNotFound, CumskewError, EmptyOrTooSmall, ParseError, parse_csv
from cumskew import ConditionSpec, DistributionSpec, raw_lorenz_grid, run_condition, run_gcurve
from cumskew import validate_sample, weight_vector
from cumskew import cli, core, experiments
from cumskew.cli import _condition_row, main
from cumskew import io
from cumskew.io import _parse_rows, _read_column, run_metadata
from cumskew.svg import lorenz_svg

GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_bytes(tmp_path, data, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


class TestParseCsv:
    def test_named_column(self, tmp_path):
        s = parse_csv(write(tmp_path, "x\n1\n2\n3\n"), column="x")
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])

    def test_headerless_first_column(self, tmp_path):
        s = parse_csv(write(tmp_path, "1\n2\n3\n"))
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])

    def test_header_auto_detected_without_selector(self, tmp_path):
        s = parse_csv(write(tmp_path, "ratio\n1.5\n2.5\n"))
        assert np.array_equal(s.values, [1.5, 2.5])

    def test_index_selector_picks_second_column(self, tmp_path):
        s = parse_csv(write(tmp_path, "a,b\n1,4\n2,5\n"), column=1)
        assert np.array_equal(s.values, [4.0, 5.0])

    def test_index_selector_as_string(self, tmp_path):
        s = parse_csv(write(tmp_path, "1,4\n2,5\n"), column="1")
        assert np.array_equal(s.values, [4.0, 5.0])

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_csv(write(tmp_path, "1\n2\nabc\n"))
        assert exc.value.line == 3

    def test_short_row_reports_line(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_csv(write(tmp_path, "1,4\n2\n"), column=1)
        assert exc.value.line == 2

    def test_missing_named_column(self, tmp_path):
        with pytest.raises(ColumnNotFound):
            parse_csv(write(tmp_path, "x\n1\n2\n"), column="y")

    def test_index_out_of_range(self, tmp_path):
        with pytest.raises(ColumnNotFound):
            parse_csv(write(tmp_path, "1\n2\n"), column=4)

    def test_blank_lines_skipped(self, tmp_path):
        s = parse_csv(write(tmp_path, "1\n\n2\n\n3\n"))
        assert s.n == 3

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyOrTooSmall):
            parse_csv(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyOrTooSmall):
            parse_csv(write(tmp_path, "x\n"), column="x")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_csv(str(tmp_path / "nope.csv"))

    def test_byte_order_mark_keeps_the_header_name(self, tmp_path):
        s = parse_csv(write_bytes(tmp_path, b"\xef\xbb\xbfx,y\n1,5\n2,6\n"), column="x")
        assert np.array_equal(s.values, [1.0, 2.0])

    def test_invalid_utf8_past_the_first_read_reports_line(self, tmp_path):
        # the text layer decodes 8 KB at a time; the line is that of the
        # byte, counting CRLF, lone CR and LF line ends as the reader does
        data = b"1\r\n2.5\r\n" * 2000 + b"3\r7,\xc3\n4\r\n"
        assert data.index(b"\xc3") > 8192
        with pytest.raises(ParseError) as exc:
            parse_csv(write_bytes(tmp_path, data))
        assert exc.value.line == 4002

    @pytest.mark.parametrize("rows", [0, 6000], ids=["same-chunk", "later-chunk"])
    def test_first_error_in_file_order_wins(self, tmp_path, rows):
        # a bad row before a bad byte is reported, whether or not the byte
        # is decoded with it
        data = b"1\nabc\n" + b"1\n" * rows + b"\xff\n"
        with pytest.raises(ParseError) as exc:
            parse_csv(write_bytes(tmp_path, data))
        assert (exc.value.line, exc.value.message) == (2, "could not parse 'abc' as a number")

    def test_undecodable_file_is_opened_at_most_twice(self, tmp_path, monkeypatch):
        path = write_bytes(tmp_path, b"1\n" * 10_000 + b"\xff\n")
        modes = []

        def counting_open(file, mode="r", *args, **kwargs):
            modes.append(mode)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open, raising=False)
        with pytest.raises(ParseError) as exc:
            parse_csv(path)
        assert (exc.value.line, exc.value.message) == (10_001, "invalid UTF-8 byte 0xff")
        assert len(modes) <= 2, modes

    @pytest.mark.parametrize("text, line, message", [
        ("x\n1e400\n2\n3\n", 2, "non-finite value inf from '1e400'"),
        ("1\n2\n -Infinity \n", 3, "non-finite value -inf from '-Infinity'"),
        ("NaN\n1\n2\n", 1, "non-finite value nan from 'NaN'"),
    ])
    def test_non_finite_cell_reports_its_line(self, tmp_path, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_csv(write(tmp_path, text))
        assert (exc.value.line, exc.value.message) == (line, message)

    def test_holds_only_the_selected_column(self, tmp_path):
        path = write(tmp_path, "".join(f"{i},{i / 7!r}\n" for i in range(100_000)))
        tracemalloc.start()
        try:
            s = parse_csv(path, column=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.n == 100_000
        assert peak < 8e6


def outcome(read, path, column):
    """The values' bytes, or the error's type and message."""
    try:
        return "values", read(path, column).values.tobytes()
    except (CumskewError, OSError) as exc:
        return type(exc).__name__, str(exc)


def loop(path, column):
    return validate_sample(_parse_rows(path, column))


def assert_same_as_loop(path, column):
    """`parse_csv` gives what the `csv` loop gives, and a column numpy's
    reader returns is the loop's, bit for bit."""
    want = outcome(loop, path, column)
    assert outcome(parse_csv, path, column) == want
    fast = _read_column(path, column)
    if fast is not None:
        assert fast.tobytes() == _parse_rows(path, column).tobytes()
    return fast is not None


HALF = "0." + "5" * 30  # 30 digits, more than a double holds
FAST_PATH_CASES = [
    # (id, file bytes, column, whether numpy's reader must take the file)
    ("17-digit", "".join(f"{v:.17g}\n" for v in (0.1, 1 / 3, 2 / 3, 1e-5 / 3, 123456789.12345678)), None, True),
    ("long-mantissa", f"{HALF}\n{HALF}e-300\n9007199254740993\n", None, True),
    ("exponents", "1e5\n-2.5E-3\n6.02e+23\n1E308\n-1.7976931348623157e308\n", None, True),
    ("subnormal", "1e-310\n4.9e-324\n2.2250738585072014e-308\n", None, True),
    ("signed-zero", "-0\n0\n-0.0\n+0\n", None, True),
    ("padded", "  1.5 \n\t2\n 3\t\n", None, True),
    ("nan", "1\nnan\n2\n", None, False),
    ("inf", "1\n2\n-Infinity\n", None, False),
    ("overflow", "x\n1e400\n2\n3\n", None, False),
    ("underscore", "2\n1_0\n", None, False),
    ("quoted-comma", 'a,b\n"1,5",2\n"x,y",3\n', "b", None),
    ("quoted-newline", 'a,b\n"1\n5",2\n3,4\n', 1, None),
    ("quoted-number", '"1.5"\n" 2 "\n', None, None),
    ("crlf", "1\r\n2\r\n3\r\n", None, True),
    ("lone-cr", "1\r2\r3\r", None, None),
    ("whitespace-line", "1\n   \n2\n", None, None),
    ("comma-line", "1,2\n,\n3,4\n", None, None),
    ("empty-cell", "1,2\n,3\n", None, False),
    ("bom", b"\xef\xbb\xbfx,y\n1,5\n2,6\n", "x", True),
    ("header-by-name", "a,b\n1,2\n3,4\n", "b", True),
    ("header-by-index", "a,b\n1,2\n3,4\n", 1, True),
    ("headerless-index", "1,2\n3,4\n", "1", True),
    ("short-row", "a,b\n1,2\n3\n", 1, False),
    ("long-unselected-cell", "x,y\n1," + "z" * 200_000 + "\n2,3\n", 0, False),
    ("invalid-utf8-late", b"1\n2.5\n" * 2000 + b"3\n\xff\n", None, False),
    ("nul", "1\n\x002\n", None, False),
    ("header-only", "x\n", None, False),
    ("blank-body", "x\n\n\n", None, False),
    ("one-value", "5\n", None, False),
    ("unknown-column", "a\n1\n2\n", "z", False),
]

# Cells that numpy's reader and the `csv` loop may treat differently.
CSV_TOKENS = ["1", "-0", "2.5e3", "1e-310", "4.9e-324", "0.30000000000000004", " 7 ",
              "nan", "-inf", "1e400", "1_0", "0x10", "abc", "", " ", "\x00",
              '"3"', '"4,5"', '"6\n7"', '"8\r\n"', '""', '"9"0', '1"2', '"']


class TestFastPath:
    """numpy's C reader and the `csv` loop agree on every file."""

    @pytest.mark.parametrize("data, column, fast",
                             [c[1:] for c in FAST_PATH_CASES], ids=[c[0] for c in FAST_PATH_CASES])
    def test_same_values_or_error_as_the_loop(self, tmp_path, data, column, fast):
        if isinstance(data, str):
            data = data.encode()
        took = assert_same_as_loop(write_bytes(tmp_path, data), column)
        if fast is not None:
            assert took == fast

    def test_random_strings_convert_as_float_does(self, tmp_path):
        # bit patterns across the float range, long mantissas and exact
        # midpoints between neighbouring doubles, which must round to even
        rng = np.random.default_rng(20223)
        bits = rng.integers(0, 2**63, size=4000, dtype=np.int64).view(np.float64)
        bits = bits[np.isfinite(bits)].tolist()
        texts = [repr(v) for v in bits] + [f"{v:.25e}" for v in bits]
        digits = rng.integers(0, 10, size=(3000, 40))
        lengths = rng.integers(1, 41, size=3000)
        exps = rng.integers(-340, 309, size=3000)
        texts += [f"0.{''.join(map(str, d[:k]))}e{e}" for d, k, e in zip(digits.tolist(), lengths, exps)]
        with localcontext() as ctx:
            ctx.prec = 1200  # a double's exact decimal has at most 767 digits
            for v in bits[:2000]:
                mid = (Decimal(v) + Decimal(math.nextafter(v, math.inf))) / 2
                texts.append(f"{mid:.1200g}")
        path = write(tmp_path, "".join(f"{t}\n" for t in texts))
        fast = _read_column(path, None)
        assert fast is not None
        assert fast.tobytes() == np.array([float(t) for t in texts]).tobytes()

    @given(st.lists(st.lists(st.sampled_from(CSV_TOKENS), min_size=1, max_size=3),
                    min_size=1, max_size=8),
           st.sampled_from(["\n", "\r\n", "\r"]),
           st.sampled_from([None, 0, 1, "a"]),
           st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_token_files_match_the_loop(self, tmp_path_factory, rows, newline, column, header):
        lines = [",".join(row) for row in rows]
        text = newline.join((["a,b"] if header else []) + lines) + newline
        path = tmp_path_factory.getbasetemp() / "tokens.csv"
        path.write_bytes(text.encode())
        assert_same_as_loop(str(path), column)


def data_lines(output):
    return [line for line in output.splitlines() if not line.startswith("#")]


class TestComputeCommand:
    def test_csv_output_six_significant_digits(self, tmp_path, capsys):
        path = write(tmp_path, "x\n1\n1\n4\n")
        assert main(["compute", path, "--column", "x"]) == 0
        header, row = data_lines(capsys.readouterr().out)
        assert header == "n,cs,b1,gini,cs_bound,degenerate"
        assert row == "3,0.333333,0.707107,0.333333,0.333333,false"

    def test_symmetric_sample(self, tmp_path, capsys):
        path = write(tmp_path, "1\n2\n3\n")
        assert main(["compute", path]) == 0
        row = data_lines(capsys.readouterr().out)[1].split(",")
        assert row[1] == "0.0" and row[2] == "0.0"

    def test_json_full_precision(self, tmp_path, capsys):
        path = write(tmp_path, "1\n1\n4\n")
        assert main(["compute", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["cs"] == 1 / 3
        assert row["b1"] == 2 / 2 ** 1.5
        assert not row["degenerate"]
        assert payload["meta"]["command"] == "compute"

    def test_degenerate_flagged(self, tmp_path, capsys):
        path = write(tmp_path, "7\n7\n")
        assert main(["compute", path]) == 0
        assert data_lines(capsys.readouterr().out)[1].endswith("true")

    def test_out_file(self, tmp_path):
        path = write(tmp_path, "1\n2\n3\n")
        out = tmp_path / "report.csv"
        assert main(["compute", path, "--out", str(out)]) == 0
        assert "n,cs,b1" in out.read_text()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["compute", str(tmp_path / "nope.csv")]) == 1
        assert "cumskew:" in capsys.readouterr().err

    def test_bad_column_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "x\n1\n2\n")
        assert main(["compute", path, "--column", "z"]) == 1

    def test_bad_data_exits_1(self, tmp_path):
        path = write(tmp_path, "1\nabc\n")
        assert main(["compute", path]) == 1

    def test_extreme_magnitudes_report_exact_values(self, tmp_path, capsys):
        # [-a, a, a] scores like [-1, 1, 1]
        path = write(tmp_path, "1e308\n1e308\n-1e308\n")
        assert main(["compute", path, "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["cs"] == pytest.approx(-1 / 3, abs=1e-12)
        assert row["b1"] == pytest.approx(-2 ** -0.5, rel=1e-9)
        assert row["gini"] == pytest.approx(4 / 3, rel=1e-9)

    def test_float_range_failure_exits_1(self, tmp_path, capsys):
        # the spread dwarfs the positive mean: the classical Gini overflows
        path = write(tmp_path, "-1e300\n1e300\n1e-10\n")
        assert main(["compute", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("cumskew:") and captured.out == ""

    def test_byte_order_mark_gives_the_full_sample(self, tmp_path, capsys):
        path = write_bytes(tmp_path, b"\xef\xbb\xbf1\n1\n4\n")
        assert main(["compute", path, "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["n"] == 3 and row["cs"] == 1 / 3

    @pytest.mark.parametrize("data, args, message", [
        (b"1\n2\n\xff\xfe\n3\n", [], "cumskew: line 3: invalid UTF-8 byte 0xff\n"),
        (b'1\n2\n"' + b"1" * 131_073 + b'"\n3\n', [],
         "cumskew: line 3: field larger than field limit (131072)\n"),
        # quoted cells that span lines: each row error names the line the
        # row starts on
        (b'"a\nb"\n1\n2\nzz\n', [],
         "cumskew: line 5: could not parse 'zz' as a number\n"),
        (b'x,y\n1,2\n"a\nb",3\n4\n', ["--column", "y"],
         "cumskew: line 5: row has no column 1\n"),
        (b'1\n"2\n3"\n4\n', [],
         "cumskew: line 2: could not parse '2\\n3' as a number\n"),
        # a non-finite cell names its line, not a sample index
        (b"x\n1e400\n2\n3\n", [], "cumskew: line 2: non-finite value inf from '1e400'\n"),
        (b"1\n2\nnan\n", [], "cumskew: line 3: non-finite value nan from 'nan'\n"),
    ], ids=["undecodable", "over-long-cell", "after-multiline-header",
            "after-multiline-row", "in-multiline-row", "overflowing-cell", "nan-cell"])
    def test_malformed_file_exits_1_with_its_line(self, tmp_path, capsys, data, args, message):
        assert main(["compute", write_bytes(tmp_path, data), *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message

    @pytest.mark.parametrize("data", [
        b"1\r\n2\r\n0,\xe2\x82\xac\r\n\xff\n",  # a 3-byte sequence, then 0xff
        b"1\r2\r\n3\n0,\xc3\xa9\r\n4\xff5\n",
        b"\r\n\r\r\n\n\xe2\x82\n",  # a sequence cut short by a line break
        b"1\n2\r\n\xe2\x82",  # a sequence cut short by the end of the file
    ])
    def test_undecodable_byte_line_in_any_chunking(self, tmp_path, data):
        # numeric padding puts each CRLF, each multi-byte sequence and the
        # bad byte at every offset around the text layer's 8 KB decode
        # chunk; the reference decodes the whole file at once
        for size in range(8150 - len(data), 8200):
            text = b"1\n" * (size // 2 - size % 2) + b"10\n" * (size % 2) + data
            try:
                text.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = text[:exc.start]
                want = (1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n"),
                        f"invalid UTF-8 byte 0x{text[exc.start]:02x}")
            with pytest.raises(ParseError) as err:
                parse_csv(write_bytes(tmp_path, text))
            assert (err.value.line, err.value.message) == want, size

    @pytest.mark.parametrize("text", ["x\n", "x\n\n\n\n"], ids=["header-only", "blank-body"])
    def test_no_data_gives_one_message_line(self, tmp_path, text):
        # numpy's "input contained no data" warning never reaches the user
        proc = subprocess.run(
            [sys.executable, "-m", "cumskew", "compute", write(tmp_path, text)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "cumskew: need at least 2 observations, got 0\n"

    def test_subnormal_data_report_exact_values(self, tmp_path, capsys):
        path = write(tmp_path, "0\n1e-310\n3e-310\n")
        assert main(["compute", path, "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["cs"] == pytest.approx(1 / 9, abs=1e-15)
        assert row["gini"] == pytest.approx(0.5, rel=1e-15)


class TestLorenzCommand:
    def test_rows_match_hand_values(self, tmp_path, capsys):
        path = write(tmp_path, "1\n1\n4\n")
        assert main(["lorenz", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i\tp\tq\td\tw"
        first = lines[1].split("\t")
        assert [float(v) for v in first[:4]] == [0.0, 0.0, 0.0, 0.0]
        assert first[4] == ""
        mid1 = [float(v) for v in lines[2].split("\t")]
        assert mid1 == pytest.approx([1, 1 / 3, 1 / 6, 1 / 6, -1.0], abs=1e-12)
        mid2 = [float(v) for v in lines[3].split("\t")]
        assert mid2 == pytest.approx([2, 2 / 3, 1 / 3, 1 / 3, 1.0], abs=1e-12)
        last = [float(v) for v in lines[4].split("\t")[:4]]
        assert last == [3.0, 1.0, 1.0, 0.0]

    def test_symmetric_gaps_constant(self, tmp_path, capsys):
        path = write(tmp_path, "1\n2\n3\n")
        assert main(["lorenz", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        gaps = [float(line.split("\t")[3]) for line in lines[2:4]]
        assert gaps == pytest.approx([1 / 6, 1 / 6], abs=1e-12)

    def test_constant_input_sits_on_diagonal(self, tmp_path, capsys):
        path = write(tmp_path, "5\n5\n5\n")
        assert main(["lorenz", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(float(line.split("\t")[3]) == 0.0 for line in lines[1:])

    def test_negative_total_falls_back_to_canonical(self, tmp_path, capsys):
        path = write(tmp_path, "-3\n-1\n-2\n")
        assert main(["lorenz", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        gaps = [float(line.split("\t")[3]) for line in lines[1:]]
        assert all(g >= 0 for g in gaps)

    def test_extreme_magnitudes_give_the_classical_grid(self, tmp_path, capsys):
        path = write(tmp_path, "1e308\n1e308\n-1e308\n")
        assert main(["lorenz", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [float(v) for line in lines[2:4] for v in line.split("\t")[:4]]
        assert rows == pytest.approx([1, 1 / 3, -1, 4 / 3, 2, 2 / 3, 0, 2 / 3], abs=1e-12)

    def test_negative_extremes_give_the_canonical_grid(self, tmp_path, capsys):
        # q_i = p_i - (i * mean - S_i) / n, exactly -2/9 and -4/9 of 1e308
        values = [-1e308, -1e308, 1e308]
        path = write(tmp_path, "".join(f"{v!r}\n" for v in values))
        assert main(["lorenz", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        x = [Fraction(v) for v in values]
        mean = sum(x) / 3
        for i in (1, 2):
            q = float(Fraction(i, 3) - (i * mean - sum(x[:i])) / 3)
            assert float(lines[i + 1].split("\t")[2]) == pytest.approx(q, rel=1e-15)
        assert float(lines[2].split("\t")[2]) == pytest.approx(-2 / 9 * 1e308, rel=1e-15)

    @pytest.mark.parametrize("values, q, d", [
        ("1e308\n1e308\n0\n", [0.0, 0.5], [1 / 3, 1 / 6]),
        ("1e308\n1e308\n1e308\n", [1 / 3, 2 / 3], [0.0, 0.0]),
    ], ids=["1e308,1e308,0", "1e308x3"])
    def test_overflowing_total_gives_the_classical_grid(self, tmp_path, capsys, values, q, d):
        # the total, 2e308 or 3e308, is outside the float range; the grid is not
        assert main(["lorenz", write(tmp_path, values)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [[float(v) for v in line.split("\t")[2:4]] for line in lines[2:4]]
        assert [r[0] for r in rows] == pytest.approx(q, abs=1e-15)
        assert [r[1] for r in rows] == pytest.approx(d, abs=1e-15)

    def test_smallest_positive_total_gives_the_classical_grid(self, tmp_path):
        # 0, 0, 5e-324 is 0, 0, 1 scaled by 2**-1074: its mean rounds to zero
        # in the data's units, but its total is positive
        written = []
        for name, values in (("one", "0\n0\n1\n"), ("tiny", "0\n0\n5e-324\n")):
            tsv, svg = tmp_path / f"{name}.tsv", tmp_path / f"{name}.svg"
            path = write(tmp_path, values, f"{name}.csv")
            assert main(["lorenz", path, "--out", str(tsv), "--svg", str(svg)]) == 0
            written.append((tsv.read_bytes(), svg.read_bytes()))
        assert written[0] == written[1]

    def test_a_grid_fault_is_reported(self, tmp_path, monkeypatch):
        # any other fault of the grid is not hidden by the canonical footing
        def broken(sample, classical):
            raise ValueError("unrelated fault")

        monkeypatch.setattr(cli, "_lorenz", broken)
        with pytest.raises(ValueError, match="unrelated fault"):
            main(["lorenz", write(tmp_path, "1\n2\n")])

    @pytest.mark.parametrize("values", ["-3\n-1\n2\n", "-3\n-1\n2\n5\n", "1\n1\n4\n"],
                             ids=["mixed-sign-negative-total", "mixed-sign-positive-total",
                                  "positive"])
    def test_one_sort_and_centring_whatever_the_total(self, tmp_path, monkeypatch, values):
        # the footing follows the raw mean of the one centred grid, so data
        # with a non-positive total are not sorted and centred again
        centre, calls = core._centre_rows, []

        def counted(x, q):
            calls.append(x.shape)
            return centre(x, q)

        monkeypatch.setattr(core, "_centre_rows", counted)
        assert main(["lorenz", write(tmp_path, values), "--out", os.devnull]) == 0
        assert len(calls) == 1

    def test_float_range_failure_exits_1(self, tmp_path, capsys):
        # the spread dwarfs the positive mean: the classical grid overflows
        path = write(tmp_path, "-1e300\n1e300\n1e-10\n")
        assert main(["lorenz", path]) == 1
        assert capsys.readouterr().err.startswith("cumskew:")

    def test_svg_beyond_the_float_range_exits_1(self, tmp_path, capsys):
        # a negative total: the canonical gaps, in the data's units, are
        # about 7e305, and their pixel coordinates overflow; the SVG once
        # held -inf coordinates
        path = write(tmp_path, "0.0\n-1.4980776123852632e+306\n")
        svg = tmp_path / "curve.svg"
        assert main(["lorenz", path, "--out", os.devnull, "--svg", str(svg)]) == 1
        assert capsys.readouterr().err == \
            "cumskew: the Lorenz curve cannot be drawn within the float range\n"
        assert svg.read_text() == ""
        assert main(["lorenz", write(tmp_path, "0.0\n-1e305\n"), "--out", os.devnull,
                     "--svg", str(svg)]) == 0

    def test_svg_emitted(self, tmp_path, capsys):
        path = write(tmp_path, "1\n1\n4\n")
        svg = tmp_path / "curve.svg"
        assert main(["lorenz", path, "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "crimson" in text and "seagreen" in text

    def test_every_file_is_opened_through_one_opener(self, tmp_path, monkeypatch):
        # the TSV and the SVG alike are written with newline="", so no
        # platform translates their line ends
        path = write(tmp_path, "1\n1\n4\n")
        tsv, svg = tmp_path / "grid.tsv", tmp_path / "curve.svg"
        opened = []

        def recording_open(file, mode="r", *args, **kwargs):
            opened.append((str(file), mode, kwargs.get("newline")))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        assert main(["lorenz", path, "--out", str(tsv), "--svg", str(svg)]) == 0
        assert sorted(opened) == sorted([(str(tsv), "w", ""), (str(svg), "w", "")])

    def test_tsv_holds_no_whole_column_as_python_numbers(self, tmp_path):
        # a float column as a list of Python floats alone is 32 B per row;
        # a writer holding every column so reads about 230 B a row (5e4
        # rows, because traced formatting is slow)
        n = 50_000
        values = np.random.default_rng(7).lognormal(size=n)
        path = write(tmp_path, "".join(f"{v!r}\n" for v in values.tolist()))
        args = ["lorenz", path, "--out", os.devnull]
        assert main(args) == 0  # a first run loads what the command needs
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 120 * n, peak / n


    def test_svg_holds_no_per_point_text(self, tmp_path):
        # within the TSV's own bound, where holding every segment's text and
        # the whole document takes about 360 B a row more (2e4 rows, because
        # traced formatting is slow)
        n = 20_000
        values = np.random.default_rng(7).lognormal(size=n)
        path = write(tmp_path, "".join(f"{v!r}\n" for v in values.tolist()))
        args = ["lorenz", path, "--out", os.devnull, "--svg", os.devnull]
        assert main(args) == 0  # a first run loads what the command needs
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 120 * n, peak / n


class TestLorenzSvg:
    def test_writes_the_golden_document_into_any_text_file(self):
        fh = StringIO()
        assert lorenz_svg(raw_lorenz_grid(validate_sample([1, 1, 4])), fh) is None
        assert fh.getvalue() == (GOLDEN / "lorenz_1_1_4.svg").read_text()

    def test_streams_the_document_a_block_at_a_time(self):
        # the document is 127 B a point; one block's text and coordinates
        # take about 400 KB, 20 B a point here
        n = 20_001
        grid = raw_lorenz_grid(validate_sample(np.random.default_rng(8).lognormal(size=n)))
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                lorenz_svg(grid, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 40 * (n - 1), peak / (n - 1)

    def test_gap_colours_follow_the_sign_of_the_weight(self):
        sign = {"crimson": -1.0, "seagreen": 1.0, "silver": 0.0}
        for n in range(2, 401):
            fh = StringIO()
            lorenz_svg(raw_lorenz_grid(validate_sample(np.arange(1.0, n + 1))), fh)
            colours = re.findall(r'stroke="(\w+)" stroke-width="1" ', fh.getvalue())
            assert [sign[c] for c in colours] == np.sign(weight_vector(n)).tolist(), n

    @pytest.mark.parametrize("n", [2**20, 2**20 + 1])
    def test_gap_position_has_the_sign_of_the_weight_at_large_n(self, n):
        # the rule the gap colours use: p_i = i/n against 1/2
        assert np.array_equal(np.sign(np.arange(1.0, n) / n - 0.5), np.sign(weight_vector(n)))


class TestWriteRowsTsv:
    def test_array_columns_write_python_numbers(self):
        # ten slices of rows, the last one short; a numpy 2 scalar would
        # print as np.float64(...)
        grid = raw_lorenz_grid(validate_sample(np.random.default_rng(8).lognormal(size=10_002)))
        fh = StringIO()
        io.write_rows_tsv(fh, grid)
        lines = fh.getvalue().splitlines()
        want = ["i\tp\tq\td\tw", "0\t0.0\t0.0\t0.0\t"]
        want += [f"{i}\t{p!r}\t{q!r}\t{d!r}\t{w!r}" for i, p, q, d, w in zip(
            range(1, 10_002), grid.p.tolist(), grid.q.tolist(), grid.d.tolist(),
            weight_vector(10_002).tolist())]
        want.append("10002\t1.0\t1.0\t0.0\t")
        assert len(lines) == len(want) == 10_004
        assert [(i, a) for i, (a, b) in enumerate(zip(lines, want)) if a != b] == []


class TestGoldenOutputs:
    """Outputs pinned byte for byte."""

    @pytest.mark.parametrize("values, name", [
        ("1\n1\n4\n", "lorenz_1_1_4"),
        ("-3\n-1\n2\n5\n", "lorenz_mixed_sign"),
    ])
    def test_lorenz_tsv_and_svg(self, tmp_path, values, name):
        tsv, svg = tmp_path / "grid.tsv", tmp_path / "grid.svg"
        assert main(["lorenz", write(tmp_path, values),
                     "--out", str(tsv), "--svg", str(svg)]) == 0
        assert tsv.read_bytes() == (GOLDEN / f"{name}.tsv").read_bytes()
        assert svg.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()

    @pytest.mark.parametrize("values, row", [
        ("1\n1\n4\n", "3,0.333333,0.707107,0.333333,0.333333,false"),
        ("-3\n-1\n2\n5\n", "4,0.0555556,0.185156,2.25,0.5,false"),
    ])
    def test_compute_csv_data_lines(self, tmp_path, values, row):
        out = tmp_path / "report.csv"
        assert main(["compute", write(tmp_path, values), "--out", str(out)]) == 0
        assert data_lines(out.read_text()) == ["n,cs,b1,gini,cs_bound,degenerate", row]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Large and awkward samples whose full CLI outputs are pinned by sha256.
# The pins were recorded with the scalar, one-value-at-a-time writers, so
# the whole-array SVG coordinates and row templates must reproduce every
# byte, every `%.2f` pixel coordinate included.
PINNED_SAMPLES = {
    "lognormal-5e4": lambda rng: rng.lognormal(size=50_000),
    "mixed-sign-5e3": lambda rng: rng.normal(size=5_000),
    "negative-5e3": lambda rng: -rng.lognormal(size=5_000),
    "subnormal-500": lambda rng: rng.random(500) * 2e-308,
}
LORENZ_PINS = {
    "lognormal-5e4": ("869e89bb7f208a70706ec71f5f62c60c35e10e8d217fe37f6eb01d21fcde704b",
                      "32b0b92995292ed5db2fd4f35ed838c771977d197903f51d340da14d64a682d6"),
    "mixed-sign-5e3": ("28d61eddcc5577464bf49dd48e4b89b67d414acc0b00ad878bdd35a3480a78d6",
                       "12d59403fde947b3b37ea45dd7359dbdac62a894a4e18d532f9a93dcc6172503"),
    "negative-5e3": ("73e9df19030f485bd3b02f23751e902e3e441d006346f162286e26599615d3f8",
                     "ce323b9394ada15e71e59343fd097004f061ec9af919032ea85eadb6c80c5ed9"),
    "subnormal-500": ("cf0431ff3b87ab0a7cceebd2451cdfb842728e4cd936a70713fdac1c4416272d",
                      "024b82869d3e7266a2990f3c1e6325424f7f12523c91415c870411da90d7a169"),
}
COMPUTE_JSON_ROWS_PIN = "109513afb8f81da038a072f712f7e0417ac26f726e60386f7326702b739525ee"
COMPUTE_CSV_ROW_PIN = "200000,0.466329,5.74987,0.522724,0.99999,false"
# experiment result files, csv and json, pinned by sha256 of every line
# but the one that names numpy's version (`normal_method`)
EXPERIMENT_PINS = {
    "table1 --reps 20 --n 30 --seed 7": (
        "58b856f1c55f21fbafe59a3d9345f5e2b06ad14e5be795ee412155b692f7be1a",
        "30ea9b0cf2e450b2d8026ae5f2174b8526be69bd570a68429e691a78dd7ffdb3"),
    "null-normal --reps 40 --n 20 --seed 5 --sigma 2.5": (
        "500436582cdb5050271eaa10cff9f4caf2292e31814614d7d2ed4bce90adeb90",
        "974cd04096e97a952d9c1f45893698349119e077b44dd1021700b679473b77f7"),
    "null-cauchy --reps 30 --n 20 --seed 2": (
        "cd3c53f087a8ba4586765b6d1cc2c4eb2e0f31f105c473b824a020a5f9b46bde",
        "de1ea4afd0caff54b9aaba880cbe3ba09b6b5fe3ffa900831873bac0ee80d393"),
    # 4 blocks in 2 seeding batches per condition, contaminated ones included
    "table1 --reps 5000 --n 20": (
        "023477621881b4639e8b73547812dc2eeb83732cc9d22b4388cfc8b164c31cf5",
        "b7a857acd260c9640a913c11b62036109cf3468e7d4ef3a99cdb33e1324c2271"),
    "gcurve --n 500 --seed 2": (
        "ca99ad2106984701bc35d64c3daaa3770a9426b6f2d3210c11731451c5da8b78",
        "02387291be2839c8d860a8de79a51d735d854dfadcb54028754cf82c5a8b417b"),
}


def sha256_without_numpy_version(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True)
            if not line.lstrip().startswith(("# normal_method=", '"normal_method": '))]
    return sha256("".join(kept).encode())


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", LORENZ_PINS)
    def test_lorenz_tsv_and_svg(self, tmp_path, name):
        values = PINNED_SAMPLES[name](np.random.default_rng(20221))
        path = write(tmp_path, "".join(f"{v!r}\n" for v in values.tolist()))
        tsv, svg = tmp_path / "grid.tsv", tmp_path / "grid.svg"
        assert main(["lorenz", path, "--out", str(tsv), "--svg", str(svg)]) == 0
        assert (sha256(tsv.read_bytes()), sha256(svg.read_bytes())) == LORENZ_PINS[name]

    @pytest.fixture(scope="class")
    def two_column_file(self, tmp_path_factory):
        rng = np.random.default_rng(20222)
        x, y = rng.lognormal(size=200_000), rng.lognormal(size=200_000)
        path = tmp_path_factory.mktemp("pins") / "xy.csv"
        path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())),
                        encoding="utf-8")
        return str(path)

    def test_compute_json_on_2e5_rows(self, two_column_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["compute", two_column_file, "--column", "y", "--format", "json",
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        # the provenance block names the input path and numpy's version
        assert sha256(text[text.index('"rows"'):].encode()) == COMPUTE_JSON_ROWS_PIN

    def test_compute_csv_on_2e5_rows(self, two_column_file, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["compute", two_column_file, "--column", "y", "--out", str(out)]) == 0
        assert data_lines(out.read_text())[1] == COMPUTE_CSV_ROW_PIN

    @pytest.mark.parametrize("args", EXPERIMENT_PINS)
    def test_experiment_csv_and_json(self, tmp_path, args):
        hashes = []
        for fmt in ("csv", "json"):
            out = tmp_path / f"result.{fmt}"
            assert main(["experiment", *args.split(), "--format", fmt, "--out", str(out)]) == 0
            hashes.append(sha256_without_numpy_version(out.read_text(encoding="utf-8")))
        assert tuple(hashes) == EXPERIMENT_PINS[args]


class TestExperimentCommand:
    def test_unknown_name_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "bogus"])
        assert exc.value.code == 2

    def test_sigma_rejected_outside_null_normal(self, capsys):
        assert main(["experiment", "table1", "--sigma", "0.4"]) == 2
        assert "--sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "-inf"])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma, capsys):
        assert main(["experiment", "null-normal", f"--sigma={sigma}", "--reps", "5"]) == 2
        want = "normal sd must be >= 0" if sigma == "-1" else "sigma must be finite"
        assert capsys.readouterr().err == f"cumskew: {want}\n"

    def test_reps_rejected_for_gcurve(self):
        assert main(["experiment", "gcurve", "--reps", "10"]) == 2

    def test_bad_values_rejected(self):
        assert main(["experiment", "table1", "--reps", "0"]) == 2
        assert main(["experiment", "table1", "--n", "1"]) == 2
        assert main(["experiment", "table1", "--jobs", "0"]) == 2
        # each one line from a library check; a given 0 must not run the
        # default size, and table1 at n=9 fails however few reps it draws
        for argv in ["table1 --n 0", "table1 --reps -1", "null-normal --n 0",
                     "null-cauchy --reps 0", "gcurve --n 0", "gcurve --n -5",
                     "gcurve --jobs 0", "table1 --n 9 --reps 1"]:
            err = StringIO()
            with redirect_stderr(err):
                assert main(["experiment", *argv.split()]) == 2, argv
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].startswith("cumskew: "), (argv, lines)

    def test_table1_too_small_n_fails_before_any_replication(self, monkeypatch, capsys):
        def replicate(args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(experiments, "_replicate_range", replicate)
        assert main(["experiment", "table1", "--n", "9", "--reps", "200000"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "cumskew: count_max 5 exceeds n/2 = 4.5\n")

    @pytest.mark.parametrize("argv, want", [
        ("null-normal --reps 3", ["# n=100", "# reps=3"]),
        ("table1 --reps 1", ["# n=200", "# reps=1"]),
        ("gcurve", ["# n=100000"]),
    ])
    def test_left_out_sizes_take_the_library_defaults(self, tmp_path, argv, want):
        out = tmp_path / "d.csv"
        assert main(["experiment", *argv.split(), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert set(want) <= set(lines)
        rows = [l.split(",") for l in lines if not l.startswith("#")]
        n = rows[0].index("n")
        assert {row[n] for row in rows[1:]} == {want[0].removeprefix("# n=")}

    def test_gcurve_provenance_names_the_library_defaults(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["experiment", "gcurve", "--n", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
        span, step = meta["g_grid"].split(" step ")
        lo, hi = map(float, span.split(".."))
        step = float(step)
        grid = [lo + k * step for k in range(round((hi - lo) / step) + 1)]
        assert len(grid) == len(experiments.DEFAULT_G_GRID)
        assert grid == pytest.approx(experiments.DEFAULT_G_GRID, abs=1e-12, rel=0)
        assert tuple(map(float, meta["sds"].split(","))) == experiments.DEFAULT_GCURVE_SDS
        assert float(meta["loc"]) == inspect.signature(run_gcurve).parameters["loc"].default
        # and the header keeps its bytes
        assert {"# loc=0.0", "# g_grid=0.1..1.5 step 0.1", "# sds=1,3"} <= set(lines)
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        for sd in experiments.DEFAULT_GCURVE_SDS:
            g = [float(row[1]) for row in rows if float(row[2]) == sd]
            assert tuple(g) == experiments.DEFAULT_G_GRID

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(["table1", "null-normal", "null-cauchy", "gcurve"]),
           n=st.sampled_from([-5, 0, 1, 2, 3, 9, 10, 25]),
           reps=st.sampled_from([-1, 0, 1, 7]),
           gcurve_reps=st.booleans(),
           sigma=st.none() | st.sampled_from(["-1", "0", "0.5", "nan", "inf", "1e308"]),
           jobs=st.sampled_from([None, 0, 1, 2]))
    def test_any_options_exit_with_a_code_and_at_most_one_line(
            self, name, n, reps, gcurve_reps, sigma, jobs):
        # --reps is always given where it applies, so nothing runs at the
        # default size; for gcurve, where it is rejected, it is drawn too
        argv = ["experiment", name, "--n", str(n)]
        if name != "gcurve" or gcurve_reps:
            argv += ["--reps", str(reps)]
        if sigma is not None:
            argv.append(f"--sigma={sigma}")
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines(keepends=True)
        if code == 0:
            assert lines == [] and out.getvalue(), argv
        else:
            assert code in (1, 2), argv
            assert len(lines) == 1 and lines[0].startswith("cumskew: "), (argv, lines)

    def test_table1_csv_structure(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["experiment", "table1", "--reps", "20", "--n", "30",
                     "--seed", "7", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == ("id,sigma,contamination,n,reps,seed,"
                            "b1_ave,b1_se,cs_ave,cs_se,degenerate_count")
        assert len(lines) == 7
        assert lines[1].startswith("1. sigma=0.2,0.2,none,30,20,7,")
        assert "high k=1..5 mag=10..20xmax" in lines[5]
        assert "low k=1..5 mag=1.05..1.5xmax" in lines[6]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["experiment", "table1", "--reps", "15", "--n", "25",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_json_round_trip_full_precision(self, tmp_path):
        c, j = tmp_path / "r.csv", tmp_path / "r.json"
        args = ["experiment", "null-normal", "--reps", "40", "--n", "20", "--seed", "5"]
        assert main(args + ["--out", str(c)]) == 0
        assert main(args + ["--out", str(j), "--format", "json"]) == 0
        lines = [l for l in c.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        cells = lines[1].split(",")
        row = json.loads(j.read_text())["rows"][0]
        for name in ("b1_ave", "b1_se", "cs_ave", "cs_se"):
            assert float(cells[header.index(name)]) == row[name]

    def test_gcurve_row_count(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["experiment", "gcurve", "--n", "500", "--seed", "2",
                     "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "id,g,sd,n,seed,cs"
        assert len(lines) == 31

    def test_null_cauchy_row(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["experiment", "null-cauchy", "--reps", "30", "--n", "20",
                     "--seed", "2", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[1].startswith("null-cauchy,,none,20,30,2,")

    @pytest.mark.parametrize("name", ["null-normal", "null-cauchy"])
    def test_null_rows_are_the_condition_rows_of_their_spec(self, tmp_path, name):
        out = tmp_path / "n.json"
        assert main(["experiment", name, "--reps", "30", "--n", "20", "--seed", "4",
                     "--format", "json", "--out", str(out)]) == 0
        dist = DistributionSpec.normal(0.0, 1.0) if name == "null-normal" else DistributionSpec.cauchy()
        spec = ConditionSpec(name, dist, 20, 30)
        want = [_condition_row(spec, run_condition(spec, 4))]
        assert json.loads(out.read_text())["rows"] == want

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "s.csv", tmp_path / "p.csv"
        base = ["experiment", "table1", "--reps", "24", "--n", "20", "--seed", "11"]
        assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_recorded_in_output(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["experiment", "null-normal", "--reps", "5", "--n", "10",
                     "--seed", "123", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# seed=123" in text
        assert ",123," in text.splitlines()[-1]

    def test_footing_label_describes_the_gap_vector(self, tmp_path):
        label = "gap vector n*g_i = i*mean - S_i, no shift"
        assert run_metadata("experiment table1")["cs_footing"] == label
        out = tmp_path / "m.csv"
        assert main(["experiment", "null-normal", "--reps", "5", "--n", "10",
                     "--out", str(out)]) == 0
        assert f"# cs_footing={label}\n" in out.read_text()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_draw_gives_one_message_line(self, jobs):
        # an error raised in a pool worker reaches the CLI as the serial
        # run's typed error, with no traceback and no numpy warning
        proc = subprocess.run(
            [sys.executable, "-m", "cumskew", "experiment", "null-normal",
             "--sigma", "1e308", "--reps", "50", "--jobs", jobs],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "cumskew: non-finite value inf at index 6\n"

    @pytest.mark.parametrize("args", [
        ["null-normal", "--reps", "1"],
        ["null-normal", "--reps", "2", "--jobs", "2"],
        ["table1", "--reps", "1"],
        ["gcurve"],
        ["gcurve", "--jobs", "2"],
    ], ids=["serial", "jobs2", "table1", "gcurve", "gcurve-jobs2"])
    def test_unallocatable_sample_size_gives_one_message_line(self, args):
        # 1e14 doubles (728 TiB) exceed a 47-bit address space, so numpy's
        # allocation fails at once on every host and nothing is paged in
        proc = subprocess.run(
            [sys.executable, "-m", "cumskew", "experiment", *args, "--n", str(10**14)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("cumskew: Unable to allocate ")
        assert proc.stderr.count("\n") == 1
