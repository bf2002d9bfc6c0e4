"""Generated inputs for the library's entry points: each call gives a
finite answer within its bounds or raises a typed CumskewError, never
another exception (RuntimeWarnings are errors under the suite's filters).

The inputs are the awkward ones: ragged and nested lists, every dtype
numpy offers for numbers and some it offers for other things, object
arrays mixing Fractions, None, bools and ints beyond the float range,
masked, 0-d and 2-D arrays, sampler parameters that are not finite real
numbers or not pairs, and CSV files for the CLI's `compute` and `lorenz
--svg`: text in and out of UTF-8, byte-order marks, quotes, blank lines,
headers, NULs, long lines, underscores, hex floats and non-finite tokens.
The CLI exits 0, or 1 or 2 with one `cumskew:` line on stderr.
"""

import io
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cumskew import (
    ConditionSpec,
    ContaminationPlan,
    ContaminationSpec,
    CumskewError,
    DistributionSpec,
    InvalidParameter,
    Sample,
    aggregate,
    gini,
    lorenz_grid,
    raw_lorenz_grid,
    run_condition,
    skew_report,
    validate_sample,
)
from cumskew.cli import main

DTYPES = [np.dtype(name) for name in (
    "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
    "float16", "float32", "float64", "longdouble", "bool", "complex64", "complex128",
    "U3", "datetime64[s]", "timedelta64[s]")]

arrays = st.sampled_from(DTYPES).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6)))

items = st.one_of(
    st.floats(), st.integers(-10**20, 10**20), st.sampled_from([10**400, -10**400]),
    st.fractions(), st.none(), st.booleans())

nested = st.recursive(st.one_of(st.floats(), st.integers(-10**6, 10**6)),
                      lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@st.composite
def masked(draw):
    values = draw(hnp.arrays(np.float64, st.integers(0, 6)))
    mask = draw(hnp.arrays(np.bool_, values.shape))
    return np.ma.array(values, mask=mask)


samples = st.one_of(
    arrays,
    st.lists(items, max_size=8),
    st.lists(items, max_size=8).map(lambda xs: np.array(xs, dtype=object)),
    nested,
    masked(),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40),
)


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


@given(samples)
@settings(deadline=None, max_examples=300)
def test_sample_and_its_scores_are_typed(raw):
    try:
        sample = validate_sample(raw)
    except CumskewError:
        return
    assert isinstance(sample, Sample) and sample.values.dtype == np.float64
    assert sample.values.ndim == 1 and sample.n >= 2
    try:
        report = skew_report(sample)
    except CumskewError:
        pass
    else:
        assert finite(report.cs, report.b1, report.gini)
        # the bound tests' tolerance (test_properties)
        assert abs(report.cs) <= report.cs_bound + 1e-12
    for build in (lorenz_grid, raw_lorenz_grid):
        try:
            grid = build(sample)
        except CumskewError:
            continue
        assert grid.n == sample.n and len(grid.p) == len(grid.q) == len(grid.d) == sample.n - 1
        assert np.isfinite(grid.p).all() and np.isfinite(grid.q).all()
        assert np.isfinite(grid.d).all()
        try:
            assert math.isfinite(gini(grid))
        except CumskewError:
            pass


params = st.one_of(
    st.floats(), st.integers(-10**6, 10**6), st.sampled_from([10**400, math.inf, -math.inf]),
    st.booleans(), st.text(max_size=3), st.none())
ranges = st.one_of(st.lists(params, max_size=3).map(tuple),
                   st.tuples(st.floats(1.0, 1e3), st.floats(1.0, 1e3)),
                   params)
kinds = st.sampled_from(["normal", "lognormal", "cauchy", "tukey_g", "weibull"])
sides = st.sampled_from(["high", "low", "sideways"])
counts = st.one_of(st.integers(-1, 6), st.sampled_from([1.0, True, None, "2"]))


def built(make, *args):
    """make(*args), or None where it raises InvalidParameter."""
    try:
        return make(*args)
    except InvalidParameter:
        return None


@given(kinds, params, params, params)
@settings(deadline=None, max_examples=200)
def test_distribution_spec_builds_or_raises_invalid_parameter(kind, mu, sigma, g):
    spec = built(DistributionSpec, kind, mu, sigma, g)
    if spec is not None:
        assert finite(spec.mu, spec.sigma, spec.g)


@given(counts, counts, sides, ranges)
@settings(deadline=None, max_examples=200)
def test_contamination_specs_build_or_raise_invalid_parameter(count, count_max, side,
                                                              magnitudes):
    built(ContaminationSpec, count, side, magnitudes)
    built(ContaminationPlan, side, count, count_max, magnitudes)


# mostly parameters that build, from the ordinary to the float range's ends
pairs = st.tuples(st.floats(1.0, 1e300, exclude_min=True),
                  st.floats(1.0, 1e300, exclude_min=True)).map(lambda t: tuple(sorted(t)))


@given(st.sampled_from(["normal", "lognormal", "cauchy", "tukey_g"]),
       st.floats(-1e300, 1e300), st.floats(0.0, 1e300, exclude_min=True), st.floats(0.0, 1e3),
       st.sampled_from(["high", "low"]), st.integers(0, 2), st.integers(0, 1),
       pairs, st.integers(6, 30), st.integers(0, 2**64))
@settings(deadline=None, max_examples=150)
def test_a_built_contaminated_condition_runs_or_raises_a_typed_error(
        kind, mu, sigma, g, side, count_min, extra, magnitudes, n, seed):
    dist = built(DistributionSpec, kind, mu, sigma, g)
    plan = built(ContaminationPlan, side, count_min, count_min + extra, magnitudes)
    if dist is None or plan is None:
        return
    spec = built(ConditionSpec, "fuzz", dist, n, 3, plan)
    if spec is None:
        return
    try:
        result = run_condition(spec, seed)
    except CumskewError:
        return
    assert result.reps == 3 and 0 <= result.degenerate_count <= 3
    assert finite(result.b1_ave, result.b1_se, result.cs_ave, result.cs_se)
    assert abs(result.cs_ave) <= 1 - 2 / n + 1e-12


aggregates = st.one_of(
    arrays, st.lists(items, max_size=8), nested, masked(), st.none(), st.text(max_size=4),
    st.lists(st.floats(), min_size=1, max_size=40).map(iter),
    st.lists(items, max_size=8).map(lambda xs: np.array(xs, dtype=object)))


@given(aggregates)
@settings(deadline=None, max_examples=300)
def test_aggregate_is_finite_or_raises_a_typed_error(values):
    try:
        mean, se = aggregate(values)
    except CumskewError:
        return
    assert finite(mean, se) and se >= 0.0


# cells the CSV readers treat specially, or that float() and numpy read
# differently
CELLS = ["1", "-2.5", "3e2", "0x1.8p1", "1_000", "inf", "-inf", "+inf", "nan", "-nan",
         "Infinity", "1e400", "-1e-400", "5e-324", '"4.5"', '"1,5"', '"', '"a\nb"', "value",
         " 7 ", "\u0661\u0662", "\u00e9", "\x00", "", " ", "1" * 5000, ",".join(["2"] * 500)]
RAW = [b"\xff", b"\xc3", b"\x80abc", b"\xef\xbb\xbf", b"\x00", b"\xed\xa0\x80"]

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(['"4.5"', " 7 ", "1_000", "5e-324", "1e308", ""])).map(str.encode)
junk = st.one_of(
    st.lists(st.one_of(st.sampled_from(CELLS), st.floats().map(repr),
                       st.integers(-10**30, 10**30).map(str), st.text(max_size=5)),
             max_size=3).map(lambda cells: ",".join(cells).encode("utf-8", "surrogatepass")),
    st.sampled_from(RAW))


@st.composite
def csv_files(draw):
    """File bytes: an optional byte-order mark, then lines of numbers with
    up to two other lines of cells or raw bytes among them (a header, if
    first), joined by one kind of line end, with or without a last."""
    rows = draw(st.lists(numbers, max_size=12))
    for at, line in draw(st.lists(st.tuples(st.integers(0, 12), junk), max_size=2)):
        rows.insert(at, line)
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + end.join(rows) \
        + draw(st.sampled_from([b"", end]))


@given(csv_files(), st.sampled_from([[], ["--column", "1"], ["--column", "value"]]))
@settings(deadline=None, max_examples=150)
def test_the_cli_exits_cleanly_on_any_file(data, column):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in (["compute", path], ["lorenz", path, "--out", os.devnull,
                                         "--svg", os.path.join(tmp, "curve.svg")]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv + column)
            text = err.getvalue()
            if code == 0:
                assert text == ""
            else:
                assert code in (1, 2), code
                assert text.startswith("cumskew: ") and text.index("\n") == len(text) - 1, text
