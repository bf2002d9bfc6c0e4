"""Cumulative skew and companion statistics built on Lorenz-curve gaps.

The cumulative skew (CS) of a sample is a weighted average of the vertical
gaps between the Lorenz curve and the 45-degree line,

    CS = sum(d_i * w_i) / sum(d_i),        w_i = (2*i - n) * 3 / n,

for gap indices i = 1..n-1.  The rank-linear weights are antisymmetric
around the median gap, so symmetric samples score exactly zero, and the
statistic is bounded by +/-(1 - 2/n) no matter how extreme an outlier is.

Gaps are evaluated on a canonical shift of the data that fixes the mean at
one.  CS is invariant under positive affine maps, so the shift never changes
its value; it only keeps the construction well defined for data whose raw
sum is zero or negative, and well conditioned when the mean dwarfs the
spread.

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

from .errors import ConstantSample, EmptyOrTooSmall, FloatRangeError, NonFiniteValue

__all__ = [
    "Sample",
    "LorenzGrid",
    "WeightVector",
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
def _grid_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only grid points p_i = i/n and weights w_i for i = 1..n-1."""
    i = np.arange(1, n)
    return _readonly(i / n), _readonly((2 * i - n) * 3.0 / n)


def _scale_rows(x: np.ndarray) -> np.ndarray:
    """Scale each sorted row of x in place by 2**-e, with e per row chosen
    by frexp so that the largest magnitude lies in [0.5, 1); return e."""
    _, e = np.frexp(np.maximum(-x[:, 0], x[:, -1]))
    np.ldexp(x, -e[:, None], out=x)
    return e


def _centre_rows(x: np.ndarray) -> np.ndarray:
    """Subtract each row's mean from x in place; return the means."""
    mean = _sum2(x) / x.shape[1]
    x -= mean[:, None]
    return mean


def _canonical_shares(dev: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shares q_i = S_i / S_n of the mean-one shift x - mean + 1, i < n.

    Takes scaled deviations, in whose units the shift 1 is 2**-e, and
    shifts them in place; q is a ratio, so it equals that of the unscaled
    shift.  Returns q and the unscaled total S_n.
    """
    dev += np.ldexp(1.0, -e)[:, None]
    sums = _compensated_cumsum(dev)
    total = sums[:, -1].copy()
    sums /= total[:, None]
    return sums[:, :-1], np.ldexp(total, e)


def _gini(gap_sum, total, n: int, raw_mean):
    """Twice the gap area, over the raw mean when that is positive.

    A gap d_i is a share of the grid's total, so d_i * total / n is the gap
    in the data's own units, (i * mean - S_i) / n, on either footing; with
    the total as computed, not as intended, the area stays right when
    rounding has moved the total of the mean-one shift away from n (CS, a
    ratio of gap sums, never sees that).  A non-positive mean leaves the
    area itself, the canonical coefficient.
    """
    area = 2.0 * gap_sum / n * (total / n)
    return np.where(raw_mean > 0.0, area / raw_mean, area)


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
    whichever block it is scored in.

    Raises:
        FloatRangeError: a row's CS or b1 is not finite.
    """
    x = np.sort(block, axis=1)
    n = x.shape[1]
    p, w = _grid_rows(n)
    degenerate = x[:, 0] == x[:, -1]
    e = _scale_rows(x)
    mean = _centre_rows(x)
    # x now holds the scaled deviations; the buffers below are reused in
    # place to keep the peak memory of large single samples down
    power = x * x
    m2 = _sum2(power) / n
    power *= x
    m3 = _sum2(power) / n
    del power
    degenerate |= m2 == 0.0
    q, total = _canonical_shares(x, e)
    d = np.subtract(p, q, out=q)
    den = _sum2(d)
    d *= w
    num = _sum2(d)
    cs = np.where(degenerate | (den == 0.0), 0.0, num / den)
    # m2 * sqrt(m2), not m2 ** 1.5: sqrt and * round correctly on every
    # platform and in every SIMD lane, a vectorised pow need not
    b1 = np.where(degenerate, 0.0, m3 / (m2 * np.sqrt(m2)))
    gini = np.where(degenerate, 0.0, _gini(den, total, n, np.ldexp(mean, e)))
    if not (np.isfinite(cs).all() and np.isfinite(b1).all()):
        raise FloatRangeError("CS or b1 of the sample cannot be computed "
                              "within the float range")
    return _Scores(cs=cs, b1=b1, gini=gini, degenerate=degenerate)


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
        total: sum of the (possibly shifted) values behind q.
        raw_mean: mean of the unshifted sample, kept so that statistics
            on the classical (unshifted) footing can be recovered.
    """

    p: np.ndarray
    q: np.ndarray
    d: np.ndarray
    n: int
    total: float
    raw_mean: float


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Rank-linear gap weights w_i = (2*i - n) * 3 / n, i = 1..n-1."""

    w: np.ndarray
    n: int


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
    """Check finiteness and size, preserving input order.

    Args:
        raw: sequence of real numbers.

    Returns:
        A Sample wrapping a read-only float64 copy of the data.

    Raises:
        EmptyOrTooSmall: fewer than two values.
        NonFiniteValue: a NaN or infinity is present (first index reported).
    """
    values = np.array(raw, dtype=np.float64)
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
def lorenz_grid(sample: Sample) -> LorenzGrid:
    """Build the gap grid on the canonical mean-one shift of the sample.

    Values are shifted by (1 - mean), sorted ascending, and accumulated;
    q_i is the running sum over the shifted total.  On this footing every
    gap is nonnegative and the gap sequence is concave.  A constant sample
    yields all-zero gaps (the curve coincides with the diagonal).

    Raises:
        FloatRangeError: the grid is not finite.
    """
    x = np.sort(sample.values)[None, :]
    n = x.shape[1]
    p = _grid_rows(n)[0]
    constant = x[0, 0] == x[0, -1]
    e = _scale_rows(x)
    raw_mean = float(np.ldexp(_centre_rows(x), e)[0])
    if constant:
        return LorenzGrid(p=p, q=p, d=_readonly(np.zeros(n - 1)),
                          n=n, total=float(n), raw_mean=raw_mean)
    q, total = _canonical_shares(x, e)
    d = p - q
    if not (np.isfinite(d).all() and np.isfinite(total).all()):
        raise FloatRangeError("the canonical Lorenz grid cannot be computed "
                              "within the float range")
    return LorenzGrid(
        p=p, q=_readonly(q[0]), d=_readonly(d[0]),
        n=n, total=float(total[0]), raw_mean=raw_mean,
    )


@np.errstate(all="ignore")  # a grid that leaves the float range raises below
def raw_lorenz_grid(sample: Sample) -> LorenzGrid:
    """Build the classical Lorenz grid on the data as given (no shift).

    This is the textbook curve with q_i = S_i / S_n on sorted values; it
    requires a positive total.  Prefer :func:`lorenz_grid` for computing
    cumulative skew, which is identical on both footings whenever the raw
    total is positive.

    Raises:
        ValueError: the values sum to zero or less.
        FloatRangeError: the grid or the total is not finite.
    """
    xs = np.sort(sample.values)[None, :]
    n = xs.shape[1]
    e = _scale_rows(xs)
    sums = _compensated_cumsum(xs[0])
    total = sums[-1]
    if total <= 0.0:
        raise ValueError("classical Lorenz curve needs a positive total")
    p = _grid_rows(n)[0]
    q = sums[:-1] / total
    d = p - q
    raw_total = float(np.ldexp(total, e[0]))
    if not (np.isfinite(d).all() and math.isfinite(raw_total)):
        raise FloatRangeError("the classical Lorenz grid cannot be computed "
                              "within the float range")
    return LorenzGrid(
        p=p, q=_readonly(q), d=_readonly(d),
        n=n, total=raw_total, raw_mean=float(np.ldexp(total / n, e[0])),
    )


def weight_vector(n: int) -> WeightVector:
    """Weights (2*i - n) * 3 / n for gap indices i = 1..n-1.

    Antisymmetric (w_i = -w_{n-i}), summing to zero, with the median gap
    carrying weight zero when n is even.  Magnitudes stay below 3.
    """
    if n < 2:
        raise EmptyOrTooSmall(f"need n >= 2, got {n}")
    return WeightVector(w=_grid_rows(n)[1], n=n)


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


@np.errstate(all="ignore")  # a coefficient outside the float range raises below
def gini(grid: LorenzGrid) -> float:
    """Gini coefficient, twice the gap area under the grid.

    Evaluated on the classical footing of the original data (gaps are
    rescaled by the raw mean, undoing the canonical shift) so that
    positive data yield the standard trapezoid Gini in [0, 1).  When the
    raw mean is not positive the shift-invariant canonical value is
    returned instead, since the classical coefficient is undefined there.
    Unlike CS, Gini depends on the location of the data.

    Raises:
        FloatRangeError: the coefficient is outside the float range.
    """
    value = float(_gini(_sum2(grid.d), grid.total, grid.n, grid.raw_mean))
    if not math.isfinite(value):
        raise FloatRangeError("the Gini coefficient is outside the float range")
    return value


def skew_report(sample: Sample) -> SkewReport:
    """Bundle CS, b1, and Gini for one sample.

    Constant samples are flagged degenerate and score zero everywhere
    rather than raising.

    Raises:
        FloatRangeError: CS, b1 or Gini is outside the float range.
    """
    scores = _score_rows(sample.values[None, :])
    cs, b1, g, degenerate = (v[0].item() for v in scores)
    if not math.isfinite(g):
        raise FloatRangeError("the Gini coefficient is outside the float range")
    return SkewReport(n=sample.n, cs=cs, b1=b1, gini=g, degenerate=degenerate)
