import json
from fractions import Fraction

import numpy as np
import pytest

from cumskew import ColumnNotFound, EmptyOrTooSmall, ParseError, parse_csv
from cumskew import ConditionSpec, DistributionSpec, run_condition
from cumskew.cli import _condition_rows, main


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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

    def test_float_range_failure_exits_1(self, tmp_path, capsys):
        # the spread dwarfs the positive mean: the classical grid overflows
        path = write(tmp_path, "-1e300\n1e300\n1e-10\n")
        assert main(["lorenz", path]) == 1
        assert capsys.readouterr().err.startswith("cumskew:")

    def test_svg_emitted(self, tmp_path, capsys):
        path = write(tmp_path, "1\n1\n4\n")
        svg = tmp_path / "curve.svg"
        assert main(["lorenz", path, "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "crimson" in text and "seagreen" in text


class TestExperimentCommand:
    def test_unknown_name_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "bogus"])
        assert exc.value.code == 2

    def test_sigma_rejected_outside_null_normal(self, capsys):
        assert main(["experiment", "table1", "--sigma", "0.4"]) == 2
        assert "--sigma" in capsys.readouterr().err

    def test_reps_rejected_for_gcurve(self):
        assert main(["experiment", "gcurve", "--reps", "10"]) == 2

    def test_bad_values_rejected(self):
        assert main(["experiment", "table1", "--reps", "0"]) == 2
        assert main(["experiment", "table1", "--n", "1"]) == 2
        assert main(["experiment", "table1", "--jobs", "0"]) == 2

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
        want = _condition_rows([run_condition(spec, 4)], [spec], 4)
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
