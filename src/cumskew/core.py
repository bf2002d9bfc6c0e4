"""Cumulative skew and companion statistics built on Lorenz-curve gaps.

The cumulative skew (CS) of a sample is a weighted average of the vertical
gaps between the Lorenz curve and the 45-degree line,

    CS = sum(d_i * w_i) / sum(d_i),        w_i = (2*i - n) * 3 / n,

for gap indices i = 1..n-1.  The rank-linear weights are antisymmetric
around the median gap, so symmetric samples score exactly zero, and the
statistic is bounded by +/-(1 - 2/n) no matter how extreme an outlier is.

Every Lorenz quantity comes from one gap vector, the running sums C_i of
the deviations x - mean of the sorted sample: with r = C_n / n, the mean
the deviations are left with after rounding of the mean,

    n * g_i = i * r - C_i = i * mean - S_i,

the gap between the diagonal and the curve in the data's own units, with
no shift of the data and no division by their total.  CS is the ratio of
two sums of these gaps and needs no footing; Gini is their area, over the
mean when the mean is positive; `lorenz_grid` reports them in the data's
units and `raw_lorenz_grid` as shares of the mean.

One kernel, `_score_rows`, scores a whole (k, n) block of samples at once:
the Monte Carlo harness stacks its replications into blocks, and the
single-sample functions are its one-row case.  Each row is first scaled by
the power of two that brings its largest magnitude into [0.5, 1); the
scaling is exact, so it changes no result in the normal float range, and it
keeps b1's moments and the mean from overflowing or underflowing at the
ends of that range.  Every reduction is a row-wise Sum2 (Ogita, Rump &
Oishi, "Accurate Sum and Dot Product", SIAM J. Sci. Comput. 26(6), 2005):
the plain running sum plus the exact TwoSum error of each step, the errors
accumulated in index order.  A result is as accurate as if computed in
twice the working precision and then rounded, and it depends on its own
row alone, never on the block around it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstantSample,
    EmptyOrTooSmall,
    FloatRangeError,
    NonFiniteValue,
    NonNumericData,
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


def _twosum_errors(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact rounding errors of the steps behind t = cumsum(x) (last axis).

    Knuth's TwoSum on t[j] = fl(t[j-1] + x[j]) recovers each error,
    (prev - (t - bb)) + (x - bb) with bb = t - prev, exactly whatever the
    magnitudes; step 0 adds to zero and is exact, so errors are returned
    for steps 1.. only.
    """
    prev, cur = t[..., :-1], t[..., 1:]
    bb = cur - prev
    err = cur - bb
    np.subtract(prev, err, out=err)
    np.subtract(x[..., 1:], bb, out=bb)
    err += bb
    return err


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, each within one rounding of exact.

    The TwoSum errors of the plain running sums are accumulated in index
    order and folded back in; the last running sum is the Sum2 of x.
    """
    t = x.cumsum(axis=-1)
    err = _twosum_errors(t, x)
    t[..., 1:] += err.cumsum(axis=-1, out=err)
    return t


def _sum2(x: np.ndarray) -> np.ndarray:
    """Sum2 along the last axis: the plain sum plus its summed TwoSum errors.

    Both sums run in index order (cumsum, not np.sum, whose pairwise
    blocking could depend on the array layout), so each row's result
    depends only on that row.
    """
    t = x.cumsum(axis=-1)
    if x.shape[-1] == 1:
        return t[..., 0]
    err = _twosum_errors(t, x)
    return t[..., -1] + err.cumsum(axis=-1, out=err)[..., -1]


@functools.lru_cache(maxsize=4)
def _grid_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ranks i, grid points p_i = i/n and weights w_i, i = 1..n-1."""
    i = np.arange(1.0, n)
    return _readonly(i), _readonly(i / n), _readonly((2 * i - n) * 3.0 / n)


def _centre_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each sorted row of x in place by 2**-e, with e per row chosen
    by frexp so that the largest magnitude lies in [0.5, 1), and subtract
    its mean; return e and the scaled means."""
    _, e = np.frexp(np.maximum(-x[:, 0], x[:, -1]))
    np.ldexp(x, -e[:, None], out=x)
    mean = _sum2(x) / x.shape[1]
    x -= mean[:, None]
    return e, mean


def _gaps(sums: np.ndarray, r: np.ndarray, i: np.ndarray, out: np.ndarray) -> np.ndarray:
    """n * g_i = i * r - C_i for i = 1..n-1, into out, from the running sums
    C of the deviations and their own mean r = C_n / n: n times the Lorenz
    gaps, in the units of the deviations."""
    gaps = np.multiply(i, r[:, None], out=out)
    gaps -= sums[:, :-1]
    return gaps


def _raw_means(values: np.ndarray, mean: np.ndarray,
               e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean in the data's own units and in the scaled ones.

    The scaled mean is right unless it is zero or subnormal: scaling a row
    that spans more than the float range flushes its smallest values to
    zero, and they decide the mean when the rest cancel ([-1e308, 1e308,
    1e-300] has a scaled mean of 0), so such rows are summed again with
    what the scaling flushed.
    """
    raw = np.ldexp(mean, e)
    small = np.abs(mean) < np.finfo(np.float64).tiny
    if small.any():
        rows = np.sort(values[small], axis=1)
        es = e[small, None]
        scaled = np.ldexp(rows, -es)
        flushed = rows - np.ldexp(scaled, es)
        raw[small] = (np.ldexp(_sum2(scaled), e[small]) + _sum2(flushed)) / rows.shape[1]
        mean = np.where(small, np.ldexp(raw, -e), mean)
    return raw, mean


def _gini(den: np.ndarray, n: int, raw_mean: np.ndarray, mean: np.ndarray,
          e: np.ndarray) -> np.ndarray:
    """Gini of each row from den, the Sum2 of its scaled n * g_i: twice the
    area between the diagonal and the curve, over the mean when the raw mean
    is positive and in the data's units otherwise; inf outside the float
    range.  The one Gini rule of the package."""
    area = 2.0 * den / n / n
    return np.where(raw_mean > 0.0, area / mean, np.ldexp(area, e))


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
def _score_rows(block: np.ndarray) -> _Scores:
    """CS, b1, Gini and the degenerate flag of each row of a (k, n) block.

    A row is degenerate when it is constant or its variance vanishes; its
    statistics are reported as 0.  A row's results are bit-identical
    whichever block it is scored in.  A Gini outside the float range is
    returned as it is, for the caller that needs it to raise.

    Raises:
        FloatRangeError: a row's CS or b1 is not finite.
    """
    x = np.sort(block, axis=1)
    n = x.shape[1]
    i, _, w = _grid_rows(n)
    degenerate = x[:, 0] == x[:, -1]
    e, mean = _centre_rows(x)
    # x now holds the scaled deviations; the buffers below are freed or
    # reused in place to keep the peak memory of large samples down.  The
    # moments are corrected by the deviations' own mean r, which rounding
    # of the mean leaves nonzero (the corrected two-pass algorithm): with
    # s_k = sum(dev**k) / n, m2 = s2 - r**2 and m3 = s3 - 3 r s2 + 2 r**3.
    # Without it b1 drifts when the mean dwarfs the spread.
    power = x * x
    s2 = _sum2(power) / n
    power *= x
    s3 = _sum2(power) / n
    del power
    sums = _compensated_cumsum(x)
    r = sums[:, -1] / n
    m2 = s2 - r * r
    m3 = s3 - 3.0 * r * s2 + 2.0 * (r * r * r)
    degenerate |= m2 == 0.0
    gaps = _gaps(sums, r, i, out=x[:, :-1])
    del sums
    den = _sum2(gaps)
    gaps *= w
    num = _sum2(gaps)
    cs = np.where(degenerate | (den == 0.0), 0.0, num / den)
    # m2 * sqrt(m2), not m2 ** 1.5: sqrt and * round correctly on every
    # platform and in every SIMD lane, a vectorised pow need not
    b1 = np.where(degenerate, 0.0, m3 / (m2 * np.sqrt(m2)))
    if not (np.isfinite(cs).all() and np.isfinite(b1).all()):
        raise FloatRangeError("CS or b1 of the sample cannot be computed "
                              "within the float range")
    gini = _gini(den, n, *_raw_means(block, mean, e), e)
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
        raw: sequence of real numbers.

    Returns:
        A Sample wrapping a read-only float64 copy of the data.

    Raises:
        NonNumericData: the data are strings, bytes or booleans (judged by
            the dtype numpy gives them, so a list mixing booleans with
            numbers passes as numbers).
        EmptyOrTooSmall: fewer than two values.
        NonFiniteValue: a NaN or infinity is present (first index reported).
    """
    values = np.array(raw)  # a copy, so converting it below never copies twice
    if values.dtype.kind in "bSU":
        raise NonNumericData(f"expected real numbers, got {values.dtype} data")
    values = values.astype(np.float64, copy=False)
    if values.ndim != 1:
        raise ValueError(f"expected 1-D data, got shape {values.shape}")
    if values.size < 2:
        raise EmptyOrTooSmall(f"need at least 2 observations, got {values.size}")
    finite = np.isfinite(values)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NonFiniteValue(idx, float(values[idx]))
    return Sample(values=_readonly(values))


@np.errstate(all="ignore")  # a grid that leaves the float range raises below
def _lorenz(sample: Sample, classical: bool) -> LorenzGrid:
    """The grid of a sample from its gap vector: the gaps in the data's own
    units, or as shares of the mean on the classical footing."""
    x = np.sort(sample.values)[None, :]
    n = x.shape[1]
    i, p, _ = _grid_rows(n)
    e, mean = _centre_rows(x)
    sums = _compensated_cumsum(x)
    gaps = _gaps(sums, sums[:, -1] / n, i, out=x[:, :-1])
    del sums  # keeps the peak memory of large samples down
    raw_mean, mean = _raw_means(sample.values[None, :], mean, e)
    if classical and not raw_mean[0] > 0.0:
        raise ValueError("classical Lorenz curve needs a positive total")
    g = float(_gini(_sum2(gaps), n, raw_mean, mean, e)[0])
    d = gaps[0]
    if classical:
        d /= n * mean[0]
    else:
        d /= n
        np.ldexp(d, e[0], out=d)
    if not np.isfinite(d).all():
        raise FloatRangeError("the Lorenz grid cannot be computed within "
                              "the float range")
    return LorenzGrid(p=p, q=_readonly(p - d), d=_readonly(d), n=n, gini=g)


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
    canonical gaps over the mean; it requires a positive total.  Prefer
    :func:`lorenz_grid` for computing cumulative skew, which is identical
    on both footings whenever the raw total is positive.

    Raises:
        ValueError: the values sum to zero or less.
        FloatRangeError: the grid is not finite.
    """
    return _lorenz(sample, classical=True)


def weight_vector(n: int) -> np.ndarray:
    """Weights (2*i - n) * 3 / n for gap indices i = 1..n-1.

    Antisymmetric (w_i = -w_{n-i}), summing to zero, with the median gap
    carrying weight zero when n is even.  Magnitudes stay below 3.  The
    row is cached and read-only.
    """
    if n < 2:
        raise EmptyOrTooSmall(f"need n >= 2, got {n}")
    return _grid_rows(n)[2]


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
    curve, over the raw mean.

    Positive data yield the standard trapezoid Gini in [0, 1).  When the
    raw mean is not positive the classical coefficient is undefined and
    the shift-invariant canonical value, the area itself in the data's
    units, is returned instead.  Unlike CS, Gini depends on the location
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
