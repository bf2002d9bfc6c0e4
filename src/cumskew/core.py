"""Cumulative skew and companion statistics built on Lorenz-curve gaps.

The cumulative skew (CS) of a sample is a weighted average of the vertical
gaps between the Lorenz curve and the 45-degree line,

    CS = sum(d_i * w_i) / sum(d_i),        w_i = (2*i - n) * 3 / n,

for gap indices i = 1..n-1.  The rank-linear weights are antisymmetric
around the median gap, so symmetric samples score exactly zero, and the
statistic is bounded by +/-(1 - 2/n) no matter how extreme an outlier is.

The grid's Lorenz quantities come from one gap vector, the running sums
C_i of the deviations x - mean of the sorted sample: with r = C_n / n, the
mean the deviations are left with after rounding of the mean,

    n * g_i = i * r - C_i = i * mean - S_i,

the gap between the diagonal and the curve in the data's own units, with
no shift of the data and no division by their total; the running sums are
extraction sums, split as the kernel's row sums are (below).
`lorenz_grid` reports the gaps in the data's units and `raw_lorenz_grid`
as shares of the mean.  A grid builds every row it needs and keeps only
its own p, q and d, so a dropped grid leaves nothing held.  The module
keeps no cache: a single sample's L-weights (below) are written, leaf by
leaf, into the kernel's scratch.

CS and Gini need only sums of the gaps, and both sums are linear in the
order statistics.  Exchanging the sums over i and j gives, with e_j the
sorted deviations and integer weights a_j = 2j - n - 1 and
c_j = 6(j-1)(j-n) + (n-1)(n-2),

    sum_i n g_i = (1/2) sum_j a_j e_j,    sum_i w_i n g_i = sum_j c_j e_j / (2n),

so that

    CS = sum_j c_j e_j / (n * sum_j a_j e_j) = (1 - 2/n) * l3 / l2,

where l2 and l3 are Hosking's unbiased sample L-moments (Hosking,
"L-moments: analysis and estimation of distributions using linear
combinations of order statistics", JRSS B 52(1), 1990): CS is (1 - 2/n)
times the sample L-skewness tau3_hat = l3 / l2, and Gini, the gap area
over the mean, is (1 - 1/n) * l2 / l1 on positive data.  Both weight
vectors sum to zero, so an error in the computed mean cancels, and they
are exact in float64 for n below 7e7.

One kernel, `_score_rows`, scores a whole (k, n) block of samples at once:
the Monte Carlo harness stacks its replications into blocks, and the
single-sample functions are its one-row case.  The kernel's memory is this
module's alone: a caller that scores many blocks at one n builds one
`_Workspace`, which sizes the blocks, holds the rows the caller fills and
the kernel's scratch, and carries the L-weights, written once; a lone
sample gets fresh scratch, its sorted copy and two rows of at most
`_BLOCK_VALUES` columns.  Each row is first scaled by
the power of two that brings its largest magnitude into [0.5, 1); the
scaling is exact, so it changes no result in the normal float range, and it
keeps b1's moments and the mean from overflowing or underflowing at the
ends of that range.  Every reduction of the kernel (the mean, the
deviations' own mean, their squares and cubes, and the two L-sums) is an
extraction sum (Rump, Ogita & Oishi, "Accurate floating-point summation
part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008): with sigma
a power of two at least 2n times a bound on the summands, which the
scaling fixes per n and per sum, the high parts q = (sigma + p) - sigma
are multiples of 2**-53 * sigma whose partial sums stay below sigma, so
they add exactly in any order, and the remainders p - q are exact and
small enough for a plain sum (a plain cumsum for the grid's running sums,
with bound 2 on the scaled deviations): beyond the final rounding, the
error is of order n**2 * 2**-106 times the largest summand, as if the sum
ran in twice the working precision.

A row's results depend on its own row alone, in an order set by n alone:
the high parts add exactly in any order, and the remainders are added by
numpy's pairwise sum along each row (no BLAS, whose blocking can depend on
the block's shape), taken leaf by leaf down numpy's own tree.  numpy sums
a run of m > 128 values as its first m // 2 - (m // 2) % 8 values plus
the rest, each halved again, so `_xsum` cuts each row at those points
into leaves of at most `_BLOCK_VALUES` columns, forms and splits each
leaf's summands in scratch of that size, sums the leaf with numpy and adds
the leaf sums left + right up the tree: numpy's sum of the whole row, bit
for bit.  A Monte Carlo block (n at most `_BLOCK_VALUES`) is one leaf.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstantSample,
    EmptyOrTooSmall,
    FloatRangeError,
    InvalidParameter,
    NonFiniteValue,
    NonNumericData,
    NonPositiveTotal,
    NotOneDimensional,
)

__all__ = [
    "Sample",
    "LorenzGrid",
    "SkewReport",
    "validate_sample",
    "lorenz_grid",
    "raw_lorenz_grid",
    "weight_vector",
    "cumulative_skew",
    "moment_skewness",
    "gini",
    "skew_report",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# Blocks of samples are scored about this many values at a time (256 KB of
# float64): large enough to amortise numpy's per-call overhead, small enough
# for the block's temporaries to stay in cache.  At n=100 on a 2-CPU x86
# host, blocks of 256-512 rows scored about twice as fast per row as blocks
# of 2048-4096 rows.  Every other pass over a long row (the leaves of the
# kernel's sums, the L-weights' writer, `experiments._squares`) works at
# most this many values at a time too, so that no temporary of it grows
# with n.
_BLOCK_VALUES = 32_768


def _sigma(n: int, bound: float) -> float:
    """The power of two above 2 * n * bound: with bound >= max|p| over n
    summands p, the high parts q = (sigma + p) - sigma are exact multiples
    of 2**-53 * sigma whose sums, and so whose partial sums, stay below
    sigma, so they add exactly in any order; the remainders p - q are
    exact too, and tiny."""
    return math.ldexp(1.0, math.frexp(2.0 * n * bound)[1])


def _pairwise(lo: int, hi: int, leaf) -> tuple:
    """The sums leaf(lo', hi') returns, a tuple of arrays, over the leaves
    of numpy's pairwise summation tree on columns lo..hi, combined as numpy
    combines them.

    numpy's sum of a contiguous run of m > 128 values is the sum of its
    first h = m // 2 - (m // 2) % 8 values plus the sum of the rest, each
    summed the same way, so a run cut at those points into leaves of at
    most _BLOCK_VALUES columns, each summed by numpy, its sums added left +
    right at every node above the leaves, has numpy's sum of the whole run,
    bit for bit.  A run of at most _BLOCK_VALUES columns is one leaf."""
    m = hi - lo
    if m <= _BLOCK_VALUES:
        return leaf(lo, hi)
    h = m // 2 - m // 2 % 8
    left, right = _pairwise(lo, lo + h, leaf), _pairwise(lo + h, hi, leaf)
    return tuple(a + b for a, b in zip(left, right))


def _xsum(x: np.ndarray, bound: float, q: np.ndarray,
          p: np.ndarray | None = None, form=None) -> np.ndarray:
    """Row sums of the summands of a (k, n) block x by error-free
    extraction (`_sigma`), with bound >= their largest magnitude: x itself
    or, with form, form(xs, ps, lo), the summands of the columns
    xs = x[:, lo:lo + m], which it may write into ps = p[:, :m].

    Each leaf of numpy's tree (`_pairwise`), at most _BLOCK_VALUES
    columns, has its summands formed and split in the scratch p and q, of
    min(n, _BLOCK_VALUES) columns; its high parts are summed exactly and
    its remainders by numpy along each row.  The leaves' high sums add
    exactly in any order and their remainder sums are combined up the
    tree, so each row's sum is that of one numpy sum over the whole row,
    in an order set by n alone.  x is left as it is.
    """
    sigma = _sigma(x.shape[1], bound)

    def leaf(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        xs, t = x[:, lo:hi], q[:, :hi - lo]
        s = xs if form is None else form(xs, p[:, :hi - lo], lo)
        np.add(s, sigma, out=t)
        t -= sigma
        high = np.add.reduce(t, axis=1)
        np.subtract(s, t, out=t)
        return high, np.add.reduce(t, axis=1)

    high, low = _pairwise(0, x.shape[1], leaf)
    high += low
    return high


def _running_sums(p: np.ndarray, bound: float, q: np.ndarray) -> np.ndarray:
    """Running sums along each row of a (k, n) block p by the same
    extraction (`_sigma`), returned in q, scratch of p's shape: the high
    parts' prefix sums are exact, and the remainders get a plain running
    sum, accumulated in place in p, which is overwritten."""
    sigma = _sigma(p.shape[1], bound)
    np.add(p, sigma, out=q)
    q -= sigma
    p -= q
    np.add.accumulate(q, axis=1, out=q)
    q += np.add.accumulate(p, axis=1, out=p)
    return q


def _squares(xs: np.ndarray, ps: np.ndarray, lo: int) -> np.ndarray:
    return np.multiply(xs, xs, out=ps)


def _cubes(xs: np.ndarray, ps: np.ndarray, lo: int) -> np.ndarray:
    ps = _squares(xs, ps, lo)
    ps *= xs
    return ps


def _weighted(n: int, cubic: bool, held: np.ndarray | None):
    """The form (`_xsum`) of the L-sum summands a_j x_j or, with cubic,
    c_j x_j of rows of n sorted values: the weights read from held, a
    workspace's row, or, without one, written leaf by leaf into the
    summands' own scratch (`_write_l_weights` from the leaf's offset), so
    that a lone sample builds no n-sized weight row."""
    def form(xs: np.ndarray, ps: np.ndarray, lo: int) -> np.ndarray:
        if held is not None:
            return np.multiply(xs, held[lo:lo + xs.shape[1]], out=ps)
        w = _write_l_weights(ps[0], cubic, lo, n)
        if len(ps) > 1:  # the other rows first, while w holds the weights
            np.multiply(xs[1:], w, out=ps[1:])
        w *= xs[0]
        return ps
    return form


def _write_l_weights(out: np.ndarray, cubic: bool, start: int = 0,
                     n: int | None = None) -> np.ndarray:
    """Write into the 1-D row out, and return it, the integer weights
    j = start + 1 .. start + len(out) of a sorted sample of n (len(out) by
    default):
    n(n-1) l2 = sum_j a_j x_(j) with a_j = 2j - n - 1, or with cubic,
    n(n-1)(n-2) l3 = sum_j c_j x_(j) with c_j = 6(j-1)(j-n) + (n-1)(n-2);
    |a_j| < n and |c_j| <= (n-1)(n-2).

    _BLOCK_VALUES weights at a time: a by one arange, then c from it in
    place (`_l3_weights`).  The weights are exact integers, so the same
    bits whatever the run and wherever it starts."""
    n = len(out) if n is None else n
    for lo in range(0, len(out), _BLOCK_VALUES):
        w = out[lo:lo + _BLOCK_VALUES]
        first = 2.0 * (start + lo) + 1.0 - n
        w[...] = np.arange(first, first + 2.0 * len(w) - 1.0, 2.0)
        if cubic:
            _l3_weights(w, n)
    return out


def _l3_weights(a: np.ndarray, n: int) -> np.ndarray:
    """Turn a row of a_j = 2j - n - 1 in place into c_j = 6(j-1)(j-n) +
    (n-1)(n-2), and return it: a^2 - (n-1)^2 = 4(j-1)(j-n), so
    c = 1.5 (a^2 - (n-1)^2) + (n-1)(n-2).  Every step is an integer of
    magnitude at most 1.5 (n-1)^2, so exact in float64 for n below 7e7."""
    a *= a
    a -= (n - 1) ** 2
    a *= 1.5
    a += (n - 1) * (n - 2)
    return a


def _kernel_rows(rows: int, n: int, held: int) -> list[np.ndarray]:
    """`held` (rows, n) blocks for a caller, then the kernel's sorted copy
    x, (rows, n), and its scratch q and p, (rows, min(n, _BLOCK_VALUES)),
    in this order in one allocation, each C-contiguous: the same rows in
    two allocations ran the Monte Carlo ranges about 6% slower on a 2-CPU
    x86 host."""
    wide = rows * (held + 1) * n
    space = np.empty(wide + 2 * rows * min(n, _BLOCK_VALUES))
    return [*space[:wide].reshape(held + 1, rows, n), *space[wide:].reshape(2, rows, -1)]


class _Workspace:
    """The memory `_score_rows` reuses across the blocks of many samples of
    one size n, up to `most` samples a block: `block`, the (rows, n) rows a
    caller fills with each block, rows = min(most, _BLOCK_VALUES // n) and
    one at least; `x`, the kernel's (rows, n) sorted copy; `q` and `p`,
    its two (rows, min(n, _BLOCK_VALUES)) scratch blocks, in which `_xsum`
    forms and splits each leaf's summands (`_kernel_rows`); and `a` and `c`, the read-only
    L-weights, written once for every block by `_write_l_weights`,
    _BLOCK_VALUES at a time, the bound that sizes the blocks.  Each block
    of rows is C-contiguous, as is every run of its leading rows."""

    def __init__(self, n: int, most: int):
        rows = max(1, min(_BLOCK_VALUES // n, most))
        self.block, self.x, self.q, self.p = _kernel_rows(rows, n, 1)
        self.a, self.c = (_readonly(_write_l_weights(np.empty(n), cubic))
                          for cubic in (False, True))


def _centre_rows(x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each sorted row of x in place by 2**-e, with e per row chosen
    by frexp so that the largest magnitude lies in [0.5, 1), and subtract
    its mean; return e and the scaled means.  q is `_xsum`'s scratch, of
    at least min(n, _BLOCK_VALUES) columns."""
    _, e = np.frexp(np.maximum(-x[:, 0], x[:, -1]))
    np.ldexp(x, -e[:, None], out=x)
    mean = _xsum(x, 1.0, q) / x.shape[1]
    x -= mean[:, None]
    return e, mean


def _signed_means(values: np.ndarray, mean: np.ndarray,
                  e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each row's total is positive, and its scaled mean, corrected
    where it is small; the one positivity rule of the package.

    The scaled mean is right to the last bit or two unless it is small: the
    extraction sum's error, beyond its rounding, stays below n**2 * 2**-98
    (scaled units), so a mean below n * 2**-45 may be off by more, and
    scaling a row that spans more than the float range flushes its smallest
    values to zero, which decide the mean when the rest cancel ([-1e308,
    1e308, 1e-300] has a scaled mean of 0).  Such rows are summed again,
    each part correctly rounded by math.fsum, with what the scaling flushed
    (`_total`);
    the sign of that total, a nonzero sum of doubles being at least 5e-324,
    is the row's, and the total, scaled and then divided by n, its mean:
    divided first, a mean that is subnormal in the data's units would lose
    bits to the subnormal grid before it was scaled.  Elsewhere the
    sign of the scaled mean is the row's.  The corrected means are written
    into mean, which is returned.
    """
    positive = mean > 0.0
    small = np.abs(mean) < values.shape[1] * 2.0 ** -45
    if small.any():
        totals = np.array([_total(values[i], k) for i, k in
                           zip(np.flatnonzero(small).tolist(), e[small].tolist())])
        positive[small] = totals > 0.0
        mean[small] = np.ldexp(totals, -e[small]) / values.shape[1]
    return positive, mean


def _total(row: np.ndarray, k: int) -> float:
    """The total of a row that its scaling by 2**-k (`_centre_rows`) may
    flush in part: the sum of its scaled values, scaled back, plus the sum
    of what the scaling flushed, each correctly rounded by one math.fsum
    fed _BLOCK_VALUES values at a time, so that no temporary grows with
    the row."""
    def parts(flushed: bool):
        for lo in range(0, len(row), _BLOCK_VALUES):
            chunk = row[lo:lo + _BLOCK_VALUES]
            scaled = np.ldexp(chunk, -k)
            yield memoryview(chunk - np.ldexp(scaled, k) if flushed else scaled)
    return math.ldexp(math.fsum(itertools.chain.from_iterable(parts(False))), k) \
        + math.fsum(itertools.chain.from_iterable(parts(True)))


def _gini(l2_sum: np.ndarray, n: int, positive: np.ndarray, mean: np.ndarray,
          e: np.ndarray) -> np.ndarray:
    """Gini of each row from l2_sum = sum_j a_j dev_j on its scaled sorted
    deviations (a from `_write_l_weights`), twice the sum of its gaps
    n * g_i.
    The Gini is twice the area between the diagonal and the curve, over the
    scaled mean where the total is positive (`_signed_means`) and in the
    data's units otherwise; inf outside the float range.  The one Gini rule
    of the package."""
    area = l2_sum / n / n
    return np.where(positive, area / mean, np.ldexp(area, e))


def _finite_gini(value: float) -> float:
    if not math.isfinite(value):
        raise FloatRangeError("the Gini coefficient is outside the float range")
    return value


class _Scores(NamedTuple):
    """Per-row results of the block kernel."""

    cs: np.ndarray
    b1: np.ndarray
    gini: np.ndarray
    degenerate: np.ndarray


@np.errstate(all="ignore")  # rows that leave the float range raise below
def _score_rows(block: np.ndarray, space: _Workspace | None = None) -> _Scores:
    """CS, b1, Gini and the degenerate flag of each row of a (k, n) block.

    A row is degenerate when it is constant or its variance vanishes; its
    statistics are reported as 0.  A row's results are bit-identical
    whichever block it is scored in.  A Gini outside the float range is
    returned as it is, for the caller that needs it to raise.

    A caller that scores many blocks at one n passes one `_Workspace` to
    all of them, of at least k rows, so that no call allocates, and
    page-faults on, its scratch or weights; a block of fewer rows than the
    workspace uses the leading rows of its scratch.  `block` may be the
    workspace's own rows, which the kernel only reads.  Without a
    workspace each call allocates its own (`_kernel_rows`): the sorted
    copy and two blocks of min(n, _BLOCK_VALUES) columns, in which the
    L-sums write a, then c, leaf by leaf (`_weighted`), so that a lone
    sample builds no n-sized row beyond its sorted copy and nothing stays
    held after the call.

    The kernel checks its own input: numpy sorts -inf first and +inf and
    every NaN last, so a row holds a NaN or an infinity exactly when one
    of its sorted ends does, and only those ends are read unless one is
    bad.

    Raises:
        NonFiniteValue: a row holds a NaN or an infinity (`_check_finite`
            on the block: the first such row, its first such index and
            value).
        FloatRangeError: a row's CS or b1 is not finite.
    """
    k, n = block.shape
    if space is None:
        (x, q, p), a, c = _kernel_rows(k, n, 0), None, None
    else:
        x, p, q, a, c = space.x[:k], space.p[:k], space.q[:k], space.a, space.c
    np.copyto(x, block)  # C order: `_xsum` sums along rows
    x.sort(axis=1)
    if not np.isfinite(x[:, [0, -1]]).all():
        _check_finite(block)
    degenerate = x[:, 0] == x[:, -1]
    e, mean = _centre_rows(x, q)
    # x now holds the scaled deviations, |dev| <= 2.  The moments are
    # corrected by the deviations' own mean r, which rounding of the mean
    # leaves nonzero (the corrected two-pass algorithm): with
    # s_k = sum(dev**k) / n, m2 = s2 - r**2 and m3 = s3 - 3 r s2 + 2 r**3.
    # Without it b1 drifts when the mean dwarfs the spread.
    r = _xsum(x, 2.0, q) / n
    s2 = _xsum(x, 4.0, q, p, _squares) / n
    s3 = _xsum(x, 8.0, q, p, _cubes) / n
    l2 = _xsum(x, 2.0 * n, q, p, _weighted(n, False, a))
    l3 = _xsum(x, 2.0 * (n - 1) * (n - 2), q, p, _weighted(n, True, c))
    del x, p, q  # frees the scratch this call allocated
    m2 = s2 - r * r
    m3 = s3 - 3.0 * r * s2 + 2.0 * (r * r * r)
    degenerate |= m2 == 0.0
    # CS = (1 - 2/n) l3 / l2; a zero numerator gives +0.0, never -0.0
    cs = np.where(degenerate | (l2 == 0.0) | (l3 == 0.0), 0.0, l3 / (n * l2))
    # m2 * sqrt(m2), not m2 ** 1.5: sqrt and * round correctly on every
    # platform and in every SIMD lane, a vectorised pow need not
    b1 = np.where(degenerate, 0.0, m3 / (m2 * np.sqrt(m2)))
    if not (np.isfinite(cs).all() and np.isfinite(b1).all()):
        raise FloatRangeError("CS or b1 of the sample cannot be computed "
                              "within the float range")
    gini = _gini(l2, n, *_signed_means(block, mean, e), e)
    return _Scores(cs=cs, b1=b1, gini=np.where(degenerate, 0.0, gini),
                   degenerate=degenerate)


@dataclass(frozen=True, eq=False)
class Sample:
    """Validated 1-D numeric observations, in their original order."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class LorenzGrid:
    """Cumulative proportions and signed gaps at p_i = i/n, i = 1..n-1.

    Attributes:
        p: cumulative proportion of individuals, exactly i/n.
        q: cumulative proportion of total size.
        d: signed gaps p - q.
        n: sample size (one more than the number of grid points).
        gini: the sample's Gini coefficient, the same on both footings and
            bit-identical to `skew_report`'s; inf when it is outside the
            float range (`gini` then raises).
    """

    p: np.ndarray
    q: np.ndarray
    d: np.ndarray
    n: int
    gini: float


@dataclass(frozen=True)
class SkewReport:
    """Skewness summary for one sample."""

    n: int
    cs: float
    b1: float
    gini: float
    degenerate: bool

    @property
    def cs_bound(self) -> float:
        """Largest magnitude CS can attain at this sample size."""
        return 1.0 - 2.0 / self.n


def validate_sample(raw) -> Sample:
    """Check type, finiteness and size, preserving input order.

    Args:
        raw: a 1-D sequence of real numbers: an array of integer or float
            dtype, or a list or object array whose items are real numbers
            (int, float, Fraction or numpy's numbers) other than booleans.

    Returns:
        A Sample wrapping a read-only float64 copy of the data.

    Raises:
        NonNumericData: the data are not real numbers: a str, bytes or
            bytearray, strings, bytes, booleans, complex numbers, dates or
            time spans (judged by the dtype numpy gives them, so a list
            mixing booleans with numbers passes as numbers, and a complex
            value with a zero imaginary part is still complex), an item of
            an object array that is not a real number (None, a string, a
            bool; a set, a dict or a generator is one such item), or a
            masked array, whose mask would otherwise be dropped.
        NotOneDimensional: the data are a scalar, have more than one
            dimension, or are ragged nested sequences such as [[1, 2], [3]]
            or [1, [2, 3]].
        EmptyOrTooSmall: fewer than two values.
        FloatRangeError: a finite value lies beyond the float64 range, such
            as a huge int or a long double (first index reported).
        NonFiniteValue: a NaN or infinity is present (first index reported).
    """
    values = _real_row(raw, copy=True)
    if values.size < 2:
        raise EmptyOrTooSmall(f"need at least 2 observations, got {values.size}")
    _check_finite(values[None, :])
    return Sample(values=_readonly(values))


def _real_row(raw, copy: bool) -> np.ndarray:
    """raw as a 1-D float64 array, by the data rules of `validate_sample`
    (masked arrays, dtypes, items, shape), which `experiments.aggregate`
    shares: a new array, or with copy False raw itself where it is a
    float64 array already.

    Raises NonNumericData, NotOneDimensional or FloatRangeError as
    `validate_sample` documents.
    """
    _check_not_text(raw)
    ma = sys.modules.get("numpy.ma")  # loaded lazily: unloaded, raw is not masked
    if ma is not None and isinstance(raw, ma.MaskedArray):
        raise NonNumericData("masked arrays are not accepted; fill or drop "
                             "the masked values first")
    try:
        # with copy, a copy, so converting it below never copies twice
        values = (np.array if copy else np.asarray)(raw)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise NotOneDimensional("expected 1-D data, got ragged nested sequences") from exc
    if values.dtype.kind not in "iufO":
        raise NonNumericData(f"expected real numbers, got {values.dtype} data")
    values = _float64(values)
    if values.ndim != 1:
        raise NotOneDimensional(f"expected 1-D data, got shape {values.shape}")
    return values


def _float64(values: np.ndarray) -> np.ndarray:
    """An array of integer, float or object dtype as float64.

    Every integer and every float up to float64 fits, so those convert in
    one cast.  An object array's items, and a wider float's values, go one
    at a time in flat order: an item that is not a real number (a set or a
    generator, too, which numpy holds as one item) raises NonNumericData,
    and a finite value that does not fit raises FloatRangeError.
    """
    if values.dtype.kind != "O" and values.dtype.itemsize <= 8:
        return values.astype(np.float64, copy=False)
    floats = np.empty(values.size)
    with np.errstate(over="ignore"):  # a value beyond the float range raises below
        for i, item in enumerate(values.flat):
            _check_item(i, item)
            try:
                floats[i] = item
                beyond = np.isinf(floats[i]) and not np.isinf(item)
            except OverflowError:  # an int or fraction too large for a float
                beyond = True
            if beyond:
                raise FloatRangeError(f"value at index {i} lies beyond the float range")
    return floats.reshape(values.shape)


def _check_not_text(raw) -> None:
    """Raise NonNumericData if the data raw are text, a str, bytes or
    bytearray, which numpy would read as one string or as byte values and
    an iteration as characters or byte values."""
    if isinstance(raw, (str, bytes, bytearray)):
        raise NonNumericData(f"expected real numbers, got {type(raw).__name__}")


def _check_item(i: int, item) -> None:
    """Raise NonNumericData unless the item at index i of the data is a real
    number, a numbers.Real other than a bool; the one item rule of
    `validate_sample`'s object arrays and `experiments.aggregate`'s
    iterables."""
    if isinstance(item, bool) or not isinstance(item, numbers.Real):
        raise NonNumericData(f"expected real numbers, got {type(item).__name__} at index {i}")


def _real_items(raw):
    """The items of the iterable raw, one at a time, each checked by
    `_check_item`; raw itself may not be text (`_check_not_text`)."""
    _check_not_text(raw)
    for i, item in enumerate(raw):
        _check_item(i, item)
        yield item


def _check_finite(block: np.ndarray) -> None:
    """Raise NonFiniteValue for the first row of a (k, n) block holding a
    NaN or infinity, with the index and value of that row's first one; the
    one finite check of the package, run on data from outside it
    (`validate_sample`, `aggregate`) and by the kernel, `_score_rows`, on
    a block whose sorted ends it found not finite."""
    finite = np.isfinite(block)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        idx = int(np.argmin(finite[row]))
        raise NonFiniteValue(idx, float(block[row, idx]))


def _check_integer(name: str, value) -> None:
    """Raise InvalidParameter unless the parameter `name` is an integer: a
    numbers.Integral, such as a numpy integer, that is not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """Raise InvalidParameter unless the parameter `name` is a finite real
    number: a numbers.Real, such as an int, a Fraction or a numpy float,
    that is not a bool and lies within the float range."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidParameter(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or a fraction beyond the float range
        finite = False
    if not finite:
        raise InvalidParameter(f"{name} must be finite")


def _check_size(name: str, value, least: int) -> None:
    """Raise InvalidParameter unless the parameter `name` is an integer
    (`_check_integer`) of at least `least`; the one size check of the
    specs and runners."""
    _check_integer(name, value)
    if value < least:
        raise InvalidParameter(f"need {name} >= {least}")


@np.errstate(all="ignore")  # a grid that leaves the float range raises below
def _lorenz(sample: Sample, classical: bool | None) -> LorenzGrid:
    """The grid of a sample from its gap vector: the gaps in the data's own
    units, or as shares of the mean on the classical footing.  With
    classical None the footing follows the sign of the total
    (`_signed_means`): classical when it is positive, canonical otherwise."""
    x = np.sort(sample.values)[None, :]
    n = x.shape[1]
    p, q = np.empty((2, 1, min(n, _BLOCK_VALUES)))
    e, mean = _centre_rows(x, q)
    positive, mean = _signed_means(sample.values[None, :], mean, e)
    if classical is None:
        classical = bool(positive[0])
    elif classical and not positive[0]:
        raise NonPositiveTotal("classical Lorenz curve needs a positive total")
    l2 = _xsum(x, 2.0 * n, q, p, _weighted(n, False, None))
    g = float(_gini(l2, n, positive, mean, e)[0])
    del p, q  # each buffer is freed once used, keeping large samples' peak down
    sums = _running_sums(x, 2.0, np.empty_like(x))  # x is scratch from here
    # n * g_i = i * r - C_i, from the running sums C of the deviations and
    # their own mean r = C_n / n; the ranks i then become the grid's p = i/n
    p = np.arange(1.0, n)
    d = np.multiply(p, sums[0, -1] / n, out=x[0, :-1])
    d -= sums[0, :-1]
    del sums
    p /= n
    if classical:
        d /= n * mean[0]
    else:
        d /= n
        np.ldexp(d, e[0], out=d)
    if not np.isfinite(d).all():
        raise FloatRangeError("the Lorenz grid cannot be computed within "
                              "the float range")
    return LorenzGrid(p=_readonly(p), q=_readonly(p - d), d=_readonly(d), n=n, gini=g)


def lorenz_grid(sample: Sample) -> LorenzGrid:
    """Build the canonical gap grid, d_i = (i * mean - S_i) / n on sorted
    values, the gaps in the data's own units.

    It is the classical curve of the data shifted to mean one (total n),
    defined whatever the sign of the total: every gap is nonnegative, the
    gap sequence is concave, and a constant sample yields all-zero gaps
    (the curve coincides with the diagonal).
    """
    return _lorenz(sample, classical=False)


def raw_lorenz_grid(sample: Sample) -> LorenzGrid:
    """Build the classical Lorenz grid on the data as given (no shift).

    This is the textbook curve with q_i = S_i / S_n on sorted values, the
    canonical gaps over the mean; it requires a positive total, judged by
    its exact sign, so a total as small as 5e-324 is positive.

    Raises:
        NonPositiveTotal: the values sum to zero or less.
        FloatRangeError: the grid is not finite.
    """
    return _lorenz(sample, classical=True)


def weight_vector(n: int) -> np.ndarray:
    """Weights (2*i - n) * 3 / n for gap indices i = 1..n-1.

    Antisymmetric (w_i = -w_{n-i}), summing to zero, with the median gap
    carrying weight zero when n is even.  Magnitudes stay below 3.  Each
    call builds a new read-only row.

    Raises:
        InvalidParameter: n is not an integer.
        EmptyOrTooSmall: n is below 2.
    """
    _check_integer("n", n)
    if n < 2:
        raise EmptyOrTooSmall(f"need n >= 2, got {n}")
    return _readonly((2 * np.arange(1.0, n) - n) * 3.0 / n)


def cumulative_skew(sample: Sample) -> float:
    """Gap-weighted skewness in [-(1 - 2/n), 1 - 2/n].

    Zero for symmetric samples, positive for right skew, and defined as 0
    for constant samples (all gaps vanish).

    Raises:
        FloatRangeError: CS or b1 is outside the float range.
    """
    return float(_score_rows(sample.values[None, :]).cs[0])


def moment_skewness(sample: Sample) -> float:
    """Classical third-moment skewness b1 = m3 / m2**1.5.

    Uses population central moments m_k = sum((x - mean)**k) / n.

    Raises:
        ConstantSample: the sample has zero variance.
        FloatRangeError: CS or b1 is outside the float range.
    """
    scores = _score_rows(sample.values[None, :])
    if scores.degenerate[0]:
        raise ConstantSample("moment skewness undefined for a constant sample")
    return float(scores.b1[0])


def gini(grid: LorenzGrid) -> float:
    """Gini coefficient, twice the gap area between the diagonal and the
    curve, over the mean.

    Positive data yield the standard trapezoid Gini in [0, 1).  When the
    total is not positive, judged by its exact sign, the classical
    coefficient is undefined and the shift-invariant canonical value, the
    area itself in the data's units, is returned instead.  Unlike CS, Gini depends on the location
    of the data.  The grid carries the value, computed by the rule the
    Monte Carlo kernel uses, so it is the same on either footing.

    Raises:
        FloatRangeError: the coefficient is outside the float range.
    """
    return _finite_gini(grid.gini)


def skew_report(sample: Sample) -> SkewReport:
    """Bundle CS, b1, and Gini for one sample.

    Constant samples are flagged degenerate and score zero everywhere
    rather than raising.

    Raises:
        FloatRangeError: CS, b1 or Gini is outside the float range.
    """
    scores = _score_rows(sample.values[None, :])
    cs, b1, g, degenerate = (v[0].item() for v in scores)
    return SkewReport(n=sample.n, cs=cs, b1=b1, gini=_finite_gini(g),
                      degenerate=degenerate)
