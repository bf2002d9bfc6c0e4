"""Deterministic Monte Carlo harness comparing CS with moment skewness.

Each replication owns an independent random stream whose id is a stable
hash of (condition id, replication index), so results are bit-identical
whether replications run serially or across a process pool, and across
repeated invocations with the same base seed.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import _score_rows, cumulative_skew, validate_sample
from .distributions import (
    ContaminationSpec,
    DistributionSpec,
    RngStream,
    _seed_words,
    contaminate,
    draw_sample,
    tukey_g_transform,
)

__all__ = [
    "ContaminationPlan",
    "ConditionSpec",
    "ConditionResult",
    "GCurvePoint",
    "derive_stream_id",
    "aggregate",
    "run_condition",
    "table1_conditions",
    "run_table1",
    "run_null",
    "run_gcurve",
]

DEFAULT_G_GRID = tuple(k / 10 for k in range(1, 16))
DEFAULT_GCURVE_SDS = (1.0, 3.0)

# Magnitude multipliers (times the sample maximum) for the built-in
# contaminated conditions.  The low-side window is chosen so that a handful
# of outliers flips the sign of b1 while CS stays positive; much larger
# low-side values make the contaminated sample genuinely left-skewed and
# CS follows them toward its lower bound.
TABLE1_HIGH_MAGNITUDES = (10.0, 20.0)
TABLE1_LOW_MAGNITUDES = (1.05, 1.5)

# Replications are scored in blocks of about this many values (256 KB of
# float64): large enough to amortise numpy's per-call overhead, small enough
# for the block's temporaries to stay in cache.  At n=100 on a 2-CPU x86
# host, blocks of 256-512 rows scored about twice as fast per row as blocks
# of 2048-4096 rows.
_BLOCK_VALUES = 32_768


def derive_stream_id(*parts) -> int:
    """Stable 64-bit stream id from string-convertible parts."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def aggregate(values) -> tuple[float, float]:
    """Mean and standard error (sd / sqrt(count), ddof 1; zero for count 1)."""
    vals = list(values)
    count = len(vals)
    if count < 1:
        raise ValueError("need at least one value")
    mean = math.fsum(vals) / count
    if count == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (count - 1)
    return mean, math.sqrt(var / count)


@dataclass(frozen=True)
class ContaminationPlan:
    """Per-replication outlier policy for one experiment condition.

    The number of replaced entries is drawn uniformly from
    [count_min, count_max] on each replication; a fixed count is the
    degenerate range count_min == count_max.
    """

    side: str
    count_min: int = 1
    count_max: int = 5
    magnitude_range: tuple[float, float] = (10.0, 20.0)

    def __post_init__(self):
        if not 0 <= self.count_min <= self.count_max:
            raise ValueError("need 0 <= count_min <= count_max")


@dataclass(frozen=True)
class ConditionSpec:
    """One Monte Carlo condition: distribution, size, reps, contamination."""

    id: str
    distribution: DistributionSpec
    n: int
    reps: int
    contamination: ContaminationPlan | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.reps < 1:
            raise ValueError("need reps >= 1")


@dataclass(frozen=True)
class ConditionResult:
    """Replication averages and standard errors for one condition.

    Replications with undefined b1 (constant samples) are excluded from
    the b1 average and counted in degenerate_count; their CS enters as 0.
    When every replication is degenerate, b1_ave is reported as 0.0.
    """

    id: str
    reps: int
    b1_ave: float
    b1_se: float
    cs_ave: float
    cs_se: float
    seed: int
    degenerate_count: int


@dataclass(frozen=True)
class GCurvePoint:
    """CS of one g-distribution sample at a grid point."""

    g: float
    sd: float
    cs: float
    n: int


def _streams(base_seed: int, stream_ids: list[int]) -> list[RngStream]:
    """The stream of every id, seeded in one batched pass."""
    words = _seed_words(base_seed, stream_ids)
    return [RngStream(base_seed, sid, seed_words=row)
            for sid, row in zip(stream_ids, words)]


def _draw(spec: ConditionSpec, rng: RngStream, crng: RngStream | None) -> np.ndarray:
    """Values of one replication drawn from its stream, contaminated from
    its contamination stream when the condition says so."""
    sample = draw_sample(spec.distribution, rng, spec.n)
    plan = spec.contamination
    if plan is not None:
        count = crng.integers(plan.count_min, plan.count_max + 1)
        sample = contaminate(
            sample,
            ContaminationSpec(count=count, side=plan.side,
                              magnitude_range=plan.magnitude_range),
            crng,
        )
    return sample.values


def _replicate_range(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CS, b1 and degenerate flags of replications start..stop-1.

    Draws are stacked into blocks of about _BLOCK_VALUES values and each
    block is scored at once; a row's scores do not depend on its block,
    so any split of the range gives the same results.
    """
    spec, base_seed, start, stop = args
    rows = max(1, _BLOCK_VALUES // spec.n)
    parts = []
    for lo in range(start, stop, rows):
        reps = range(lo, min(lo + rows, stop))
        rngs = _streams(base_seed, [derive_stream_id(spec.id, rep) for rep in reps])
        if spec.contamination is None:
            crngs = [None] * len(reps)
        else:
            crngs = _streams(base_seed, [derive_stream_id(spec.id, rep, "contamination")
                                         for rep in reps])
        block = np.stack([_draw(spec, rng, crng) for rng, crng in zip(rngs, crngs)])
        scores = _score_rows(block)
        parts.append((scores.cs, scores.b1, scores.degenerate))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _chunk_bounds(reps: int, chunks: int) -> list[tuple[int, int]]:
    # contiguous 1-based rep ranges covering 1..reps
    chunks = max(1, min(chunks, reps))
    size, extra = divmod(reps, chunks)
    bounds = []
    start = 1
    for c in range(chunks):
        stop = start + size + (1 if c < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _pool_workers(jobs: int, tasks: int) -> int:
    """Worker processes for `tasks` pool tasks: jobs, capped by the host's
    CPU count and by the number of tasks."""
    return min(jobs, os.cpu_count() or 1, tasks)


def run_condition(spec: ConditionSpec, base_seed: int, jobs: int = 1) -> ConditionResult:
    """Run all replications of one condition and aggregate.

    jobs > 1 fans replications out over a process pool of at most jobs
    workers (fewer on a host with fewer CPUs); results are reduced in
    replication order either way, so output is identical to a serial run.
    """
    if jobs > 1 and spec.reps > 1:
        tasks = [(spec, base_seed, start, stop)
                 for start, stop in _chunk_bounds(spec.reps, jobs * 4)]
        with ProcessPoolExecutor(max_workers=_pool_workers(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_replicate_range, tasks))
        cs, b1, degenerate = (np.concatenate(col) for col in zip(*chunks))
    else:
        cs, b1, degenerate = _replicate_range((spec, base_seed, 1, spec.reps + 1))

    b1_vals = b1[~degenerate].tolist()
    degenerate_count = int(degenerate.sum())
    cs_ave, cs_se = aggregate(cs.tolist())
    b1_ave, b1_se = aggregate(b1_vals) if b1_vals else (0.0, 0.0)
    return ConditionResult(
        id=spec.id, reps=spec.reps,
        b1_ave=b1_ave, b1_se=b1_se, cs_ave=cs_ave, cs_se=cs_se,
        seed=base_seed, degenerate_count=degenerate_count,
    )


def table1_conditions(n: int = 200, reps: int = 10_000) -> tuple[ConditionSpec, ...]:
    """The six built-in lognormal conditions (four clean, two contaminated)."""
    high = ContaminationPlan(side="high", magnitude_range=TABLE1_HIGH_MAGNITUDES)
    low = ContaminationPlan(side="low", magnitude_range=TABLE1_LOW_MAGNITUDES)
    return (
        ConditionSpec("1. sigma=0.2", DistributionSpec.lognormal(0.2), n, reps),
        ConditionSpec("2. sigma=0.5", DistributionSpec.lognormal(0.5), n, reps),
        ConditionSpec("3. sigma=1.0", DistributionSpec.lognormal(1.0), n, reps),
        ConditionSpec("4. sigma=2.0", DistributionSpec.lognormal(2.0), n, reps),
        ConditionSpec("5. sigma=0.5 outliers(high)", DistributionSpec.lognormal(0.5),
                      n, reps, contamination=high),
        ConditionSpec("6. sigma=1.0 outliers(low)", DistributionSpec.lognormal(1.0),
                      n, reps, contamination=low),
    )


def run_table1(base_seed: int, n: int = 200, reps: int = 10_000,
               jobs: int = 1) -> list[ConditionResult]:
    """Run the six built-in conditions at n=200, reps=10,000 by default."""
    return [run_condition(spec, base_seed, jobs=jobs)
            for spec in table1_conditions(n=n, reps=reps)]


def run_null(dist: DistributionSpec, n: int, reps: int, base_seed: int,
             jobs: int = 1) -> ConditionResult:
    """Null study of CS under a symmetric distribution (normal or cauchy)."""
    if dist.kind not in ("normal", "cauchy"):
        raise ValueError("null experiments need a symmetric distribution "
                         "(normal or cauchy)")
    spec = ConditionSpec(id=f"null-{dist.kind}", distribution=dist, n=n, reps=reps)
    return run_condition(spec, base_seed, jobs=jobs)


def run_gcurve(g_grid=DEFAULT_G_GRID, sds=DEFAULT_GCURVE_SDS, n: int = 100_000,
               base_seed: int = 0, loc: float = 0.0) -> list[GCurvePoint]:
    """CS of g-distribution samples along a grid of g values.

    For each underlying sd, one normal sample Z of size n is drawn and
    reused across the whole grid (common random numbers), which makes the
    increase of CS in g a sharp property of the output rather than a
    statistical one.
    """
    grid = list(g_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("g grid must be strictly increasing")
    points = []
    for sd in sds:
        rng = RngStream(base_seed, derive_stream_id("gcurve", f"sd={sd!r}"))
        z = loc + sd * rng.standard_normal(n)
        for g in grid:
            cs = cumulative_skew(validate_sample(tukey_g_transform(z, g)))
            points.append(GCurvePoint(g=float(g), sd=float(sd), cs=cs, n=n))
    return points
