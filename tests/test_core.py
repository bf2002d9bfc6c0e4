import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumskew import (
    ConstantSample,
    CumskewError,
    EmptyOrTooSmall,
    FloatRangeError,
    InvalidParameter,
    NonFiniteValue,
    NonNumericData,
    NonPositiveTotal,
    NotOneDimensional,
    cumulative_skew,
    gini,
    lorenz_grid,
    moment_skewness,
    raw_lorenz_grid,
    skew_report,
    validate_sample,
    weight_vector,
)
from cumskew.core import (
    _BLOCK_VALUES,
    _WEIGHT_CHUNK,
    _l3_weights,
    _score_rows,
    _Workspace,
    _write_l_weights,
    _xsum,
)


def cs(values):
    return cumulative_skew(validate_sample(values))


class TestValidateSample:
    def test_well_formed(self):
        s = validate_sample([1, 2, 3])
        assert s.n == 3
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])

    def test_order_preserved(self):
        s = validate_sample([3, 1, 2])
        assert np.array_equal(s.values, [3.0, 1.0, 2.0])

    def test_values_are_read_only(self):
        s = validate_sample([1, 2])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_nan_reports_index(self):
        with pytest.raises(NonFiniteValue) as exc:
            validate_sample([1, float("nan")])
        assert exc.value.index == 1

    def test_inf_reports_index(self):
        with pytest.raises(NonFiniteValue) as exc:
            validate_sample([float("inf"), 1, 2])
        assert exc.value.index == 0

    def test_too_small(self):
        with pytest.raises(EmptyOrTooSmall):
            validate_sample([5])
        with pytest.raises(EmptyOrTooSmall):
            validate_sample([])

    def test_rejects_2d(self):
        with pytest.raises(NotOneDimensional, match=r"expected 1-D data, got shape \(2, 2\)"):
            validate_sample([[1, 2], [3, 4]])
        with pytest.raises(NotOneDimensional, match=r"expected 1-D data, got shape \(\)"):
            validate_sample(5.0)
        # numpy cannot make an array of ragged nesting at all
        for ragged in ([[1, 2], [3]], [1, [2, 3]]):
            with pytest.raises(NotOneDimensional, match="expected 1-D data, got ragged"):
                validate_sample(ragged)

    @pytest.mark.parametrize("raw", [
        ["1", "2", "7"],
        [True, False, True],
        np.array(["1.5", "2"]),
        np.array([b"1", b"2"]),
        np.array([True, False]),
        [1, "2", 3],
        "127",
        b"127",
        [1 + 2j, 3, 5],
        [1.0, 2.0 + 0j, 3.0],
        np.array([1, 2, 3], dtype=np.complex64),
    ])
    def test_rejects_strings_bytes_and_bools(self, raw):
        with pytest.raises(NonNumericData):
            validate_sample(raw)
        assert issubclass(NonNumericData, CumskewError)

    @pytest.mark.parametrize("raw", [
        np.array(["2020-01-01", "2020-01-03", "2020-01-09"], dtype="datetime64[D]"),
        np.array([1, 2, 7], dtype="timedelta64[s]"),
        np.ma.array([1, 2, 3, 4], mask=[0, 1, 0, 0]),
        np.ma.array([1.0, 2.0, 3.0]),
        np.array(["1", 2, 3], dtype=object),
        [1, None, 3],
        [Fraction(1, 2), 1, True],
        {1.0, 2.0, 3.0},
        (x for x in [1.0, 2.0, 3.0]),
    ], ids=["datetime64", "timedelta64", "masked", "mask-free-masked-array",
            "object-str", "object-none", "object-bool", "set", "generator"])
    def test_rejects_data_that_are_not_real_numbers(self, raw):
        # dates and spans would score as day or second counts, a mask would
        # be dropped, and None would be reported as a NaN
        with pytest.raises(NonNumericData):
            validate_sample(raw)

    @pytest.mark.parametrize("raw", [
        [10**400, 1, 2],
        [1, -Fraction(10**400), 2],
    ])
    def test_finite_value_beyond_float64_is_a_range_error(self, raw):
        with pytest.raises(FloatRangeError, match="at index"):
            validate_sample(raw)

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                        reason="long double is float64 here")
    def test_long_double_beyond_float64_is_a_range_error(self):
        with pytest.raises(FloatRangeError, match="at index 0"):
            validate_sample(np.array([np.longdouble("1e4000"), 1, 2]))
        with pytest.raises(FloatRangeError, match="at index 1"):
            validate_sample(np.array([1.0, np.longdouble("-1e4000")], dtype=object))
        with pytest.raises(NonFiniteValue, match="at index 2"):
            validate_sample(np.array([1, 2, np.longdouble("inf")]))
        s = validate_sample(np.array([np.longdouble(1) / 3, 2]))
        assert s.values.tolist() == [1 / 3, 2.0]

    def test_object_items_convert_as_numpy_casts_them(self):
        items = [Fraction(1, 3), 2**70 + 1, -(2**64) + 1, np.float32(0.1), np.int64(-7),
                 np.uint64(2**64 - 1), 0.5, Fraction(-10**300, 3)]
        s = validate_sample(items)
        assert np.array_equal(s.values, np.array(items, dtype=object).astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64, np.float32, np.float64])
    def test_numeric_dtypes_accepted(self, dtype):
        s = validate_sample(np.array([3, 1, 2], dtype=dtype))
        assert s.values.dtype == np.float64
        assert np.array_equal(s.values, [3.0, 1.0, 2.0])


class TestLorenzGrid:
    def test_symmetric_example(self):
        g = lorenz_grid(validate_sample([1, 2, 3]))
        assert np.array_equal(g.p, [1 / 3, 2 / 3])
        # canonical gaps equal the raw hand values (1/6, 1/6) times S_n/n = 2
        assert g.d == pytest.approx([1 / 3, 1 / 3], abs=1e-15)
        assert np.array_equal(g.d, g.p - g.q)

    def test_right_skewed_example(self):
        g = lorenz_grid(validate_sample([1, 1, 4]))
        assert g.d == pytest.approx([1 / 3, 2 / 3], abs=1e-15)

    def test_raw_grid_matches_hand_values(self):
        g = raw_lorenz_grid(validate_sample([1, 2, 3]))
        assert g.q == pytest.approx([1 / 6, 1 / 2], abs=1e-15)
        assert g.d == pytest.approx([1 / 6, 1 / 6], abs=1e-15)
        g = raw_lorenz_grid(validate_sample([1, 1, 4]))
        assert g.q == pytest.approx([1 / 6, 1 / 3], abs=1e-15)
        assert g.d == pytest.approx([1 / 6, 1 / 3], abs=1e-15)

    def test_raw_grid_needs_positive_total(self):
        with pytest.raises(ValueError):
            raw_lorenz_grid(validate_sample([-1, 1]))

    def test_non_positive_total_is_a_typed_error(self):
        with pytest.raises(NonPositiveTotal) as got:
            raw_lorenz_grid(validate_sample([-1, 1]))
        assert str(got.value) == "classical Lorenz curve needs a positive total"
        assert isinstance(got.value, ValueError) and isinstance(got.value, CumskewError)

    def test_constant_sample_sits_on_diagonal(self):
        g = lorenz_grid(validate_sample([7, 7, 7, 7]))
        assert np.array_equal(g.d, [0.0, 0.0, 0.0])
        assert np.array_equal(g.q, g.p)

    def test_canonical_gaps_scale_with_raw_mean(self):
        # shifting only rescales the raw gaps by a common factor
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = np.exp(rng.standard_normal(rng.integers(2, 60)))
            can = lorenz_grid(validate_sample(x))
            raw = raw_lorenz_grid(validate_sample(x))
            assert can.d == pytest.approx(raw.d * np.mean(x), rel=1e-12, abs=1e-15)

    def test_gaps_nonnegative_and_concave(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(3, 400))
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
            g = lorenz_grid(validate_sample(x))
            assert np.all(g.d >= -1e-12)
            assert np.all(np.diff(g.d, 2) <= 1e-12)

    def test_grids_match_their_pin(self):
        # d, q and Gini of seeded grids on both footings, bit for bit
        assert grid_digest() == GRID_PIN

    def test_a_dropped_grid_leaves_nothing_held(self):
        # the sorted copy, its scratch and two running-sum rows peak at 32 B
        # a value; once the grid is dropped, no n-sized row stays held, only
        # a few hundred bytes of the interpreter's own
        n = 200_000
        sample = validate_sample(np.random.default_rng(6).lognormal(size=n))
        lorenz_grid(validate_sample([1.0, 2.0, 4.0]))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            lorenz_grid(sample)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 40 * n, (peak - start) / n
        assert held - start <= 4096, held - start


GRID_FAMILIES = {
    "lognormal": lambda rng, n: rng.lognormal(size=n),
    "normal-1e300": lambda rng, n: rng.standard_normal(n) * 1e300,
    "normal-1e-300": lambda rng, n: rng.standard_normal(n) * 1e-300,
    "normal+1e12": lambda rng, n: rng.standard_normal(n) + 1e12,
    "integer-ties": lambda rng, n: rng.integers(0, 5, n).astype(float),
    "outlier-1e15": lambda rng, n: np.append(rng.lognormal(size=n - 1), 1e15),
    "mixed-1e-10..1": lambda rng, n: 10.0 ** rng.uniform(-10, 0, n),
}
GRID_SIZES = (2, 3, 4, 7, 10, 33, 100, 101, 1000, 4999, 5000)
GRID_PIN = "8c82131e62ca970ba47ceaa9e21b8890ec854bfde0c070735b1a38632e79f3dd"


def grid_digest():
    """sha256 over the grids of every family, seed and size on both footings;
    a footing that refuses a sample adds its error's name."""
    h = hashlib.sha256()
    for draw, seed in itertools.product(GRID_FAMILIES.values(), (1, 2, 3)):
        rng = np.random.default_rng(seed)
        for n in GRID_SIZES:
            sample = validate_sample(draw(rng, n))
            for build in (lorenz_grid, raw_lorenz_grid):
                try:
                    grid = build(sample)
                except (ValueError, FloatRangeError) as exc:
                    h.update(type(exc).__name__.encode())
                    continue
                h.update(grid.d.astype("<f8").tobytes())
                h.update(grid.q.astype("<f8").tobytes())
                h.update(grid.gini.hex().encode())
    return h.hexdigest()


class TestWeightVector:
    def test_examples(self):
        assert np.array_equal(weight_vector(4), [-1.5, 0.0, 1.5])
        assert np.array_equal(weight_vector(3), [-1.0, 1.0])
        assert np.array_equal(weight_vector(6), [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_identities(self):
        for n in (2, 3, 10, 11, 100, 101, 997):
            w = weight_vector(n)
            assert math.fsum(w) == pytest.approx(0.0, abs=1e-12)
            assert np.array_equal(w, -w[::-1])
            assert np.max(np.abs(w)) == pytest.approx(3 - 6 / n, abs=1e-12)
            if n % 2 == 0:
                assert w[n // 2 - 1] == 0.0

    def test_too_small(self):
        with pytest.raises(EmptyOrTooSmall):
            weight_vector(1)

    @pytest.mark.parametrize("n, message", [
        (3.5, "n must be an integer, got 3.5"),
        (3.0, "n must be an integer, got 3.0"),
        (True, "n must be an integer, got True"),
    ])
    def test_n_must_be_an_integer(self, n, message):
        with pytest.raises(InvalidParameter) as got:
            weight_vector(n)
        assert str(got.value) == message


class TestLWeights:
    def test_equal_the_direct_expression_bit_for_bit(self):
        # sizes about the chunk cover a row written in one chunk and in many
        for n in [*range(2, 3001), _WEIGHT_CHUNK - 1, _WEIGHT_CHUNK, _WEIGHT_CHUNK + 1,
                  3 * _WEIGHT_CHUNK + 7, 2**20 + 1, 1_000_003]:
            j = np.arange(1.0, n + 1)
            a, c = (_write_l_weights(np.empty(n), cubic) for cubic in (False, True))
            assert a.tobytes() == (2 * j - n - 1).tobytes(), n
            assert c.tobytes() == (6 * (j - 1) * (j - n) + (n - 1) * (n - 2)).tobytes(), n

    def test_rows_for_many_samples_are_the_written_ones_read_only(self):
        n = 3 * _WEIGHT_CHUNK + 7
        space = _Workspace(n, 1)
        for cubic, row in enumerate((space.a, space.c)):
            assert not row.flags.writeable
            assert row.tobytes() == _write_l_weights(np.empty(n), cubic).tobytes()

    @pytest.mark.parametrize("n", [69_999_999, 70_000_000])
    def test_in_place_steps_are_exact_near_the_bound(self, n):
        # the ends, the middle (where |c| peaks) and points between
        j = [1, 2, 3, n // 7, n // 2, n // 2 + 1, (n + 1) // 2, n - 2, n - 1, n,
             *np.random.default_rng(n).integers(1, n + 1, 20).tolist()]
        c = _l3_weights(np.array([2.0 * k - n - 1 for k in j]), n)
        assert [int(v) for v in c.tolist()] == \
            [6 * (k - 1) * (k - n) + (n - 1) * (n - 2) for k in j]

    def test_a_report_peaks_at_its_workspace_and_holds_nothing(self):
        # the kernel's workspace is 24 B a value; the weights are written
        # into its scratch a chunk at a time, and nothing stays held
        n = 200_000
        sample = validate_sample(np.random.default_rng(4).lognormal(size=n))
        skew_report(validate_sample([1.0, 2.0, 4.0]))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            skew_report(sample)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 26 * n, (peak - start) / n
        assert held - start <= 4096, held - start


class TestCumulativeSkew:
    def test_symmetric_is_zero(self):
        assert cs([1, 2, 3]) == 0.0

    def test_right_skewed_attains_bound(self):
        assert cs([1, 1, 4]) == pytest.approx(1 / 3, abs=1e-15)

    def test_single_extreme_outlier_stays_bounded(self):
        for m in (2.0, 10.0, 1e6):
            assert cs([1, 1, m]) == pytest.approx(1 / 3, abs=1e-12)

    def test_reflection_flips_sign(self):
        assert cs([-4, -1, -1]) == pytest.approx(-cs([1, 1, 4]), abs=1e-15)

    def test_two_points_score_zero(self):
        assert cs([0, 10]) == 0.0

    def test_constant_sample_scores_zero(self):
        assert cs([7, 7, 7]) == 0.0

    def test_ones_plus_m_family(self):
        for n in (3, 10, 57, 200):
            assert cs([1.0] * (n - 1) + [50.0]) == pytest.approx(1 - 2 / n, abs=1e-12)

    def test_tie_permutation_invariance_is_exact(self):
        base = [3.0, 1.0, 3.0, 2.0, 2.0, 3.0, 1.0]
        ref = cs(base)
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert cs(list(rng.permutation(base))) == ref

    def test_raw_and_canonical_agree_for_positive_mean(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = np.exp(rng.standard_normal(rng.integers(2, 200)))
            g = raw_lorenz_grid(validate_sample(x))
            w = weight_vector(g.n)
            den = math.fsum(g.d)
            raw_cs = math.fsum(g.d * w) / den if den else 0.0
            assert cs(x) == pytest.approx(raw_cs, rel=1e-9, abs=1e-12)


class TestMomentSkewness:
    def test_symmetric(self):
        assert moment_skewness(validate_sample([1, 2, 3])) == 0.0

    def test_hand_value(self):
        got = moment_skewness(validate_sample([1, 1, 4]))
        assert got == pytest.approx(2 / 2 ** 1.5, rel=1e-15)

    def test_constant_raises(self):
        with pytest.raises(ConstantSample):
            moment_skewness(validate_sample([7, 7, 7]))


class TestGini:
    def test_no_dispersion(self):
        assert gini(lorenz_grid(validate_sample([1, 1, 1]))) == 0.0

    def test_hand_values(self):
        assert gini(lorenz_grid(validate_sample([1, 1, 4]))) == pytest.approx(1 / 3, rel=1e-15)
        assert gini(lorenz_grid(validate_sample([0, 1]))) == pytest.approx(1 / 2, rel=1e-15)

    def test_matches_mean_absolute_difference_form(self):
        # independent oracle: G = sum|xi - xj| / (2 n^2 mean)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = np.exp(rng.standard_normal(rng.integers(2, 80)))
            want = float(np.abs(np.subtract.outer(x, x)).sum()
                         / (2 * x.size ** 2 * x.mean()))
            got = gini(lorenz_grid(validate_sample(x)))
            assert got == pytest.approx(want, rel=1e-9)

    def test_in_unit_interval_for_nonnegative_data(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = np.abs(rng.standard_normal(rng.integers(2, 80))) + 0.01
            g = gini(lorenz_grid(validate_sample(x)))
            assert 0.0 <= g < 1.0


class TestSkewReport:
    def test_composed_example(self):
        r = skew_report(validate_sample([1, 1, 4]))
        assert r.cs == pytest.approx(1 / 3, abs=1e-15)
        assert r.b1 == pytest.approx(2 / 2 ** 1.5, rel=1e-15)
        assert r.gini == pytest.approx(1 / 3, rel=1e-15)
        assert not r.degenerate
        assert r.cs_bound == pytest.approx(1 / 3)

    def test_degenerate_convention(self):
        r = skew_report(validate_sample([7, 7]))
        assert (r.cs, r.b1, r.gini, r.degenerate) == (0.0, 0.0, 0.0, True)

    def test_symmetric_example(self):
        r = skew_report(validate_sample([1, 2, 3]))
        assert r.cs == 0.0
        assert r.b1 == 0.0
        assert r.gini == pytest.approx(2 / 9, rel=1e-15)
        assert not r.degenerate

    def test_bound_holds_under_stress(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            x = rng.standard_normal(n)
            x[0] *= 10 ** rng.integers(0, 9)  # plant an extreme outlier
            r = skew_report(validate_sample(x))
            assert abs(r.cs) <= 1 - 2 / n + 1e-12


def exact_cs(values):
    """CS in exact rational arithmetic from the unshifted gap numerators."""
    x = sorted(Fraction(v) for v in values)
    n = len(x)
    if x[0] == x[-1]:
        return Fraction(0)
    partial = list(itertools.accumulate(x))
    gaps = [i * partial[-1] - n * partial[i - 1] for i in range(1, n)]
    return Fraction(3, n) * sum(g * (2 * i - n) for i, g in enumerate(gaps, 1)) / sum(gaps)


def exact_gini(values):
    """Classical Gini in exact rational arithmetic, from the sorted values:
    sum |x_i - x_j| / (2 n^2 mean) = sum_j (2j - n - 1) x_(j) / (n sum x)."""
    x = sorted(Fraction(v) for v in values)
    n = len(x)
    return sum((2 * j - n - 1) * v for j, v in enumerate(x, 1)) / (n * sum(x))


def exact_b1(values):
    """b1 from exact rational moments; only the final float and sqrt round."""
    x = [Fraction(v) for v in values]
    mean = sum(x) / len(x)
    m2 = sum((v - mean) ** 2 for v in x) / len(x)
    m3 = sum((v - mean) ** 3 for v in x) / len(x)
    return math.sqrt(m3 ** 2 / m2 ** 3) * (1 if m3 >= 0 else -1)


class TestCompensatedSums:
    def test_prefix_sums_within_one_rounding_of_exact(self):
        rng = np.random.default_rng(10)
        rows = [np.array([1 / 3, 2 / 3, 1 / 3])]
        rows += [np.exp(rng.standard_normal(300)) for _ in range(20)]
        # mixed signs over ten decades, where prefixes cancel
        rows += [rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-5, 5, 2000)
                 for _ in range(50)]
        for row in rows:
            p = row[None, :]
            got = _xsum(p, np.abs(row).max(), np.empty_like(p), np.add.accumulate)[0]
            exact = Fraction(0)
            for value, prefix in zip(row, got):
                exact += Fraction(value)
                assert abs(Fraction(prefix) - exact) <= Fraction(1, 2 ** 53) * abs(exact)

    def test_xsum_within_one_ulp_of_fsum(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 2000))
            row = (rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n))[None, :]
            want = math.fsum(row[0])
            got = _xsum(row, np.abs(row).max(), np.empty_like(row))[0]
            assert abs(got - want) <= math.ulp(want)

    def test_xsum_under_cancellation_is_twice_the_working_precision(self):
        # values and their negatives, shuffled, plus a few tiny ones: a plain
        # sum is off by about 2**-53 * max|p|, the extraction sum by no more
        # than a small multiple of n**2 * 2**-106 * max|p|
        rng = np.random.default_rng(13)
        for n in (2, 64, 129, 2000):
            for _ in range(20):
                x = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-10, 0, n // 2)
                row = np.concatenate([x, -x, rng.standard_normal(n % 2 + 2) * 1e-20])
                row = rng.permutation(row)[None, :]
                bound = np.abs(row).max()
                want = math.fsum(row[0])
                got = _xsum(row, bound, np.empty_like(row))[0]
                assert abs(got - want) <= math.ulp(want) + row.size ** 2 * 2.0 ** -100 * bound

    def test_block_sums_are_the_row_sums(self):
        block = np.random.default_rng(12).lognormal(size=(5, 77))
        bound = block.max()
        sums = _xsum(block, bound, np.empty_like(block))
        for row, total in zip(block, sums):
            assert _xsum(row[None, :], bound, np.empty((1, 77)))[0] == total


def kernel_rows(rng, kind, n):
    if kind == 0:
        return rng.standard_normal(n)
    if kind == 1:
        return np.exp(2.0 * rng.standard_normal(n))
    if kind == 2:
        return rng.integers(0, 3, n).astype(float)  # heavy ties
    if kind == 3:
        return np.full(n, rng.standard_normal())  # constant
    if kind == 4:  # spread below the resolution of the mean-one shift
        return 1e-300 * (1.0 + rng.integers(0, 2, n) * 2.0 ** -52)
    if kind == 5:  # contaminated: a few wild values on either side
        x = np.exp(rng.standard_normal(n))
        k = max(1, n // 20)
        x[rng.choice(n, k, replace=False)] = rng.choice([-1, 1], k) * 1e6 * x.max()
        return x
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300)  # wide scales


class TestBlockKernel:
    @pytest.mark.parametrize("k", [1, 3, 257])
    @pytest.mark.parametrize("n", [2, 3, 100, 1000])
    def test_rows_score_as_they_would_alone(self, k, n):
        rng = np.random.default_rng([13, k, n])
        block = np.stack([kernel_rows(rng, i % 7, n) for i in range(k)])
        whole = _score_rows(block)
        for i in range(k):
            alone = _score_rows(block[i:i + 1])
            for field, value in zip(whole._fields, alone):
                assert getattr(whole, field)[i:i + 1].tobytes() == value.tobytes(), (field, i)

    def test_single_sample_functions_are_the_one_row_case(self):
        rng = np.random.default_rng(14)
        block = np.stack([kernel_rows(rng, kind, 50) for kind in range(7)])
        scores = _score_rows(block)
        for i, row in enumerate(block):
            sample = validate_sample(row)
            report = skew_report(sample)
            assert report.cs == scores.cs[i] == cumulative_skew(sample)
            assert report.b1 == scores.b1[i]
            assert report.gini == scores.gini[i]
            assert report.degenerate == scores.degenerate[i]
            if not report.degenerate:
                assert moment_skewness(sample) == report.b1

    @pytest.mark.parametrize("n", [3, 100, 4000, _BLOCK_VALUES + 1])
    def test_blocks_in_one_workspace_score_as_in_fresh_scratch(self, n):
        # full and short blocks, in the workspace's own rows or an array of
        # the caller's, each after the scratch a larger block left behind
        rng = np.random.default_rng([15, n])
        space = _Workspace(n, 40)
        rows = len(space.block)
        assert rows == max(1, min(40, _BLOCK_VALUES // n))
        assert space.work.shape == (3, rows, n)
        assert all(part.flags.c_contiguous for part in (space.block, *space.work))
        for k in (rows, 1, max(1, rows - 3), rows):
            block = np.stack([kernel_rows(rng, i % 7, n) for i in range(k)])
            want = [v.tobytes() for v in _score_rows(block)]
            assert [v.tobytes() for v in _score_rows(block, space)] == want, k
            np.copyto(space.block[:k], block)
            assert [v.tobytes() for v in _score_rows(space.block[:k], space)] == want, k
            assert space.block[:k].tobytes() == block.tobytes()  # only read

    def test_degenerate_rows_score_zero(self):
        scores = _score_rows(np.array([[2.0, 2.0, 2.0], [1.0, 2.0, 4.0]]))
        assert scores.degenerate.tolist() == [True, False]
        assert (scores.cs[0], scores.b1[0], scores.gini[0]) == (0.0, 0.0, 0.0)


EDGE_NS = [2, 3, 4, 63, 64, 65, 127, 128, 129]


def edge_rows(rng, n):
    """Rows at the edges of the kernel's extraction sums."""
    yield rng.standard_normal(n)
    yield rng.lognormal(0.0, 2.0, n)
    yield rng.integers(-3, 4, n).astype(float)  # ties
    for offset in (1e12, 1e15):  # the mean dwarfs the spread
        yield offset + rng.integers(0, 8, n).astype(float)
    yield rng.lognormal(size=n) * 1e-315  # subnormal
    x = rng.standard_normal(n)
    top = np.argmax(np.abs(x))
    x[top] = math.copysign(4.0, x[top])  # largest magnitude a power of two
    yield x
    for edge in (1.0, 0.75):  # min = -max
        x = rng.uniform(-edge, edge, n)
        x[0], x[-1] = -edge, edge
        yield x
    x = np.full(n, 0.99)
    x[0] = -0.99  # scaled deviation of the minimum close to -2
    yield x


class TestExtractionKernel:
    @pytest.mark.parametrize("n", EDGE_NS)
    def test_cs_and_b1_are_exact_at_every_edge(self, n):
        rng = np.random.default_rng([20, n])
        for _ in range(5):
            for x in edge_rows(rng, n):
                if x.min() == x.max():
                    continue
                report = skew_report(validate_sample(x))
                assert report.cs == pytest.approx(float(exact_cs(x)), abs=1e-15)
                want = exact_b1(x)
                assert abs(report.b1 - want) <= 1e-15 * max(1.0, abs(want))

    @pytest.mark.parametrize("n", EDGE_NS)
    def test_rows_are_bit_identical_in_any_block(self, n):
        rng = np.random.default_rng([21, n])
        rows = []
        while len(rows) < 327:
            rows += list(edge_rows(rng, n))
        block = np.stack(rows[:327])

        def bits(scores, lo, hi):
            return [getattr(scores, f)[lo:hi].tobytes() for f in ("cs", "b1", "gini")]

        whole = _score_rows(block)
        for size in (1, 7):
            for lo in range(0, 327, size):
                part = _score_rows(block[lo:lo + size])
                assert bits(part, 0, size) == bits(whole, lo, lo + size), (size, lo)
        # the kernel copies any layout into C order before it sums rows
        assert bits(_score_rows(np.asfortranarray(block)), 0, 327) == bits(whole, 0, 327)
        for i, row in enumerate(block):
            report = skew_report(validate_sample(row))
            assert [np.float64(v).tobytes() for v in (report.cs, report.b1, report.gini)] \
                == bits(whole, i, i + 1), i


def l_moments(values):
    """Hosking's unbiased sample L-moments l1, l2, l3 (JRSS B 52(1), 1990)
    in exact arithmetic, from the probability-weighted moments b_r."""
    x = sorted(Fraction(v) for v in values)
    n = len(x)
    b0 = sum(x) / n
    b1 = sum(Fraction(j - 1, n - 1) * v for j, v in enumerate(x, 1)) / n
    b2 = sum(Fraction((j - 1) * (j - 2), (n - 1) * (n - 2)) * v
             for j, v in enumerate(x, 1)) / n
    return b0, 2 * b1 - b0, 6 * b2 - 6 * b1 + b0


class TestLSkewnessIdentity:
    # CS = (1 - 2/n) l3 / l2 and Gini = (1 - 1/n) l2 / l1: both gap sums are
    # linear in the order statistics, with weights of degree 1 and 2 in j
    @given(st.lists(st.one_of(st.integers(-5, 5), st.integers(-10**9, 10**9)),
                    min_size=3, max_size=60))
    @settings(deadline=None)
    def test_cs_is_scaled_sample_l_skewness(self, xs):
        n = len(xs)
        _, l2, l3 = l_moments(xs)
        want = Fraction(0) if l2 == 0 else (1 - Fraction(2, n)) * l3 / l2
        assert exact_cs(xs) == want
        assert cs([float(v) for v in xs]) == pytest.approx(float(want), abs=1e-15)

    @given(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 10**9)),
                    min_size=3, max_size=60))
    @settings(deadline=None)
    def test_gini_is_scaled_l_cv(self, xs):
        n = len(xs)
        l1, l2, _ = l_moments(xs)
        want = (1 - Fraction(1, n)) * l2 / l1
        assert exact_gini(xs) == want
        got = skew_report(validate_sample([float(v) for v in xs])).gini
        assert got == pytest.approx(float(want), rel=1e-15, abs=0)


class TestFloatRange:
    @pytest.mark.parametrize("values", [
        [1e200, 1e-200, 3.0],
        [1e-300, 2e-300, 7e-300],
        [1e308, 1e308, -1e308],
        [-1.7e308, 1.7e308, 1.7e308, 0.0],
    ])
    def test_b1_across_the_float_range(self, values):
        sample = validate_sample(values)
        assert moment_skewness(sample) == pytest.approx(exact_b1(values), rel=1e-9)
        assert not skew_report(sample).degenerate

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e12, 1e15])
    def test_b1_at_large_offsets(self, offset):
        # the rounded mean leaves the deviations a nonzero mean of their own;
        # uncorrected, it moved b1 by 5.5e-5 relative at 1e12 and 3.7% at 1e15
        values = offset + np.array([0, 1, 1, 2, 2, 3, 7.0])
        assert moment_skewness(validate_sample(values)) == pytest.approx(
            exact_b1(values), rel=1e-14)

    def test_b1_of_offset_random_rows(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            x = rng.lognormal(0.0, 1.0, int(rng.integers(3, 60)))
            x = x * 10.0 ** rng.uniform(-3, 3) + 10.0 ** rng.uniform(0, 15)
            if x.min() == x.max():
                continue
            assert moment_skewness(validate_sample(x)) == pytest.approx(exact_b1(x), rel=1e-12)

    def test_extreme_magnitudes_give_exact_statistics(self):
        # [-a, a, a] scores like [-1, 1, 1]: CS -1/3, b1 -1/sqrt(2), Gini 4/3
        report = skew_report(validate_sample([1e308, 1e308, -1e308]))
        assert report.cs == pytest.approx(-1 / 3, abs=1e-12)
        assert report.b1 == pytest.approx(-1 / math.sqrt(2), rel=1e-9)
        assert report.gini == pytest.approx(4 / 3, rel=1e-9)
        grid = raw_lorenz_grid(validate_sample([1e308, 1e308, -1e308]))
        assert grid.q == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert gini(grid) == pytest.approx(4 / 3, rel=1e-9)

    def test_classical_grid_needs_no_total(self):
        # the total, 2e308, overflows; the grid and Gini of [0, 1, 1] do not
        grid = raw_lorenz_grid(validate_sample([1e308, 1e308, 0]))
        assert grid.q == pytest.approx([0.0, 0.5], abs=1e-15)
        assert grid.d == pytest.approx([1 / 3, 1 / 6], abs=1e-15)
        assert gini(grid) == 1 / 3
        grid = raw_lorenz_grid(validate_sample([1e308] * 3))
        assert np.array_equal(grid.d, [0.0, 0.0])
        assert gini(grid) == 0.0

    def test_grids_carry_the_kernel_gini(self):
        # one Gini rule: the grids' value is skew_report's, bit for bit, or
        # all of them raise the same typed error
        def outcome(fn, sample):
            try:
                return repr(fn(sample))
            except (FloatRangeError, ValueError) as exc:
                return type(exc).__name__

        rng = np.random.default_rng(18)
        rows = [kernel_rows(rng, kind, n) for kind in range(7) for n in (2, 3, 50, 1000)]
        rows += [rng.lognormal(size=n) * 10.0 ** rng.uniform(-323, -308)
                 for n in (2, 3, 50, 1000)]  # subnormal
        rows += [rng.standard_normal(n) - 2.0 for n in (2, 3, 50, 1000)]  # negative mean
        for row in rows:
            sample = validate_sample(row)
            want = outcome(lambda s: skew_report(s).gini, sample)
            assert outcome(lambda s: gini(lorenz_grid(s)), sample) == want
            if math.fsum(row) > 0:
                assert outcome(lambda s: gini(raw_lorenz_grid(s)), sample) == want

    def test_gini_is_exact_on_subnormal_rows(self):
        # dividing the area by a mean rounded to a subnormal once cost the
        # grids' Gini up to 4.5e-4 relative
        rng = np.random.default_rng(19)
        for _ in range(200):
            x = rng.lognormal(size=int(rng.integers(2, 60))) * 10.0 ** rng.uniform(-320, -300)
            if x.min() == x.max():
                continue
            sample = validate_sample(x)
            want = float(exact_gini(x))
            for got in (skew_report(sample).gini, gini(lorenz_grid(sample)),
                        gini(raw_lorenz_grid(sample))):
                assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("tiny", [1e-20, 3e-25, 1e-30, 1e-100, 1e-200])
    def test_gini_when_the_mean_cancels(self, tiny):
        # values and their negatives plus one tiny value: the mean is the
        # tiny value over n, far below the spread; it decides the footing
        # and divides the area, so it must be right to the last bits
        rng = np.random.default_rng(22)
        for n in (3, 11, 101):
            x = rng.standard_normal(n // 2)
            for sign in (1, -1):
                values = rng.permutation(np.concatenate([x, -x, [sign * tiny]]))
                sample = validate_sample(values)
                if sign > 0:
                    want = float(exact_gini(values))
                else:  # the canonical area, in the data's units
                    xs = sorted(Fraction(v) for v in values)
                    want = float(sum((2 * j - n - 1) * v for j, v in enumerate(xs, 1)) / n ** 2)
                for got in (skew_report(sample).gini, gini(lorenz_grid(sample))):
                    assert got == pytest.approx(want, rel=1e-15, abs=0), (n, sign)

    def test_large_scales_score_exactly_or_raise_a_typed_error(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(0, 300)
            x += rng.integers(0, 2) * 10.0 ** rng.uniform(0, 300)
            try:
                report = skew_report(validate_sample(x))
            except FloatRangeError:
                continue
            assert report.cs == pytest.approx(float(exact_cs(x)), abs=1e-12)
            mean = sum(map(Fraction, x)) / n
            if mean > 0 and not report.degenerate:
                pairs = sum(abs(Fraction(a) - Fraction(b)) for a in x for b in x)
                assert report.gini == pytest.approx(float(pairs / (2 * n * n * mean)), rel=1e-9)

    def test_power_of_two_scalings_keep_every_bit(self):
        # an exact scaling by 2**k moves no statistic, down to the smallest
        # subnormal: CS, b1 and the flag always, and the Gini and the
        # classical grid whenever the total is positive, however small its
        # mean in the data's units
        rng = np.random.default_rng(23)
        samples = [[0.0, 0.0, 1.0], [-1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [1.0, 2.0, 2.0, 7.0],
                   [1.0, -1.0, 2.0**-60], rng.lognormal(size=20), rng.standard_normal(20)]

        def bits(sample, positive):
            report = skew_report(sample)
            got = [report.cs.hex(), report.b1.hex(), report.degenerate]
            if positive:
                grid = raw_lorenz_grid(sample)
                got += [report.gini.hex(), grid.p.tobytes(), grid.q.tobytes(), grid.d.tobytes()]
            return got

        for x in map(np.asarray, samples):
            positive = math.fsum(x) > 0
            want = bits(validate_sample(x), positive)
            checked = 0
            with np.errstate(over="ignore"):
                for k in range(-1074, 1024):
                    y = np.ldexp(x, k)
                    if np.isfinite(y).all() and np.array_equal(np.ldexp(y, -k), x):
                        assert bits(validate_sample(y), positive) == want, (x, k)
                        checked += 1
            assert checked > 1000

    def test_results_outside_the_float_range_raise_a_typed_error(self):
        # the spread dwarfs the positive mean: the classical grid and Gini
        # overflow, while CS and b1 stay finite
        values = [-1e300, 1e300, 1e-10]
        sample = validate_sample(values)
        for fn in (skew_report, raw_lorenz_grid, lambda s: gini(lorenz_grid(s))):
            with pytest.raises(FloatRangeError):
                fn(sample)
        assert issubclass(FloatRangeError, CumskewError)
        assert cs(values) == pytest.approx(float(exact_cs(values)), abs=1e-15)
        assert moment_skewness(sample) == pytest.approx(exact_b1(values), abs=1e-300)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_subnormal_samples_score_exactly(self, sign):
        values = [0.0, sign * 1e-310, sign * 3e-310]
        assert exact_cs(values) == sign * Fraction(1, 9)
        report = skew_report(validate_sample(values))
        assert report.cs == pytest.approx(sign / 9, abs=1e-15)
        assert report.b1 == pytest.approx(exact_b1(values), rel=1e-12)
        # sum|xi - xj| / (2 n^2 mean) = 12 / 24 for [0, 1, 3]; for the
        # negative sample the canonical area, 2 * (5 + 4) * 1e-310 / 9 / 3
        want = 0.5 if sign > 0 else 2e-310 / 3
        assert report.gini == pytest.approx(want, rel=1e-12, abs=0)
        assert lorenz_grid(validate_sample(values)).d == pytest.approx(
            [4e-310 / 9, 5e-310 / 9] if sign > 0 else [5e-310 / 9, 4e-310 / 9], abs=1e-323)

    def test_gaps_need_no_shift(self):
        # what a shift of the data to mean one loses: a spread below its
        # resolution, and a total that rounds to 0 at large magnitudes
        assert cs([1, 1, 1, 1 + 2 ** -52]) == 0.5
        report = skew_report(validate_sample([1e20, -3e20]))
        assert (report.cs, report.b1, report.gini) == (0.0, 0.0, 1e20)
        z = np.random.default_rng(1).lognormal(size=200)
        assert cs(1e-300 * z) == pytest.approx(cs(z), abs=1e-15)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_mean_flushed_by_the_scaling_decides_the_gini_footing(self, sign):
        # scaled by 2**-1024 the third value flushes to 0 and the rest
        # cancel; the positive mean makes the classical Gini overflow, the
        # negative one leaves the canonical area, 2 * (2e308 / 9)
        values = [-1e308, 1e308, sign * 1e-300]
        sample = validate_sample(values)
        assert cumulative_skew(sample) == 0.0
        assert moment_skewness(sample) == pytest.approx(exact_b1(values), abs=1e-300)
        if sign > 0:
            for fn in (skew_report, raw_lorenz_grid, lambda s: gini(lorenz_grid(s))):
                with pytest.raises(FloatRangeError):
                    fn(sample)
        else:
            assert skew_report(sample).gini == pytest.approx(4 / 9 * 1e308, rel=1e-12)
            assert gini(lorenz_grid(sample)) == pytest.approx(4 / 9 * 1e308, rel=1e-12)

    def test_cs_is_exact_at_every_scale_and_offset(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            n = int(rng.integers(2, 40))
            x = (rng.standard_normal(n) if rng.integers(0, 2) else rng.lognormal(0, 1, n))
            x = x * 10.0 ** rng.uniform(-300, 300)
            x = x + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 15) * np.abs(x).max()
            assert cs(x) == pytest.approx(float(exact_cs(x)), abs=1e-15)
