"""Deterministic Monte Carlo harness comparing CS with moment skewness.

Each replication owns an independent random stream whose id is a stable
hash of (condition id, replication index), so results are bit-identical
whether replications run serially or across a process pool, and across
repeated invocations with the same base seed.  A condition's replications
are split into one contiguous range per worker.  A range is the one place
where stream ids become PCG64 states: a batch of blocks at a time, it
hashes the draw stream ids and, for a contaminated condition, the
contamination stream ids, and computes each kind's states in one pass
(`distributions._stream_states`).  Each block is drawn from its rows of
both (`distributions._BlockSampler`, which takes states alone) and scored
at once (`core._score_rows`), all in one workspace and with one set of
L-weights per range.

Runs with more than one worker map their ranges, one task each, onto one
process pool per process (`_SharedPool`): it is built on first use,
rebuilt when the worker count changes or a worker has died, never used by
a forked child, and closed at exit.  A run with one worker, including any
run on a 1-CPU host, stays in the calling process.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.util import Finalize

import numpy as np

from .core import _check_finite, _check_integer, _l_weights, _score_rows
from .distributions import (
    ContaminationSpec,
    DistributionSpec,
    RngStream,
    _BlockSampler,
    _stream_states,
    _transform,
)
from .errors import InvalidParameter

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

# Stream states are computed for about this many replications at a time,
# in whole blocks: enough to spread the seeding hash's numpy calls over
# many rows, and a fixed bound on its temporaries (about 200 bytes per
# replication) however many replications a range holds.
_SEED_REPS = 4096


def derive_stream_id(*parts) -> int:
    """Stable 64-bit stream id from string-convertible parts."""
    text = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def _stream_ids(prefix: bytes, reps, suffix: bytes = b"") -> np.ndarray:
    """derive_stream_id(condition id, rep) of every rep, or with the
    "contamination" part, as a uint64 array, from the condition id's text
    encoded once: prefix is b"<id>:" and suffix b"" or b":contamination".

    The prefix is hashed once; each rep continues a copy of that hash.
    """
    head = hashlib.blake2b(prefix, digest_size=8)
    digests = bytearray()
    for rep in reps:
        h = head.copy()
        h.update(b"%d%s" % (rep, suffix))
        digests += h.digest()
    return np.frombuffer(digests, ">u8").astype(np.uint64)


def aggregate(values) -> tuple[float, float]:
    """Mean and standard error (sd / sqrt(count), ddof 1; zero for count 1)
    of real numbers, each taken as a float.

    Both sums are math.fsum over the values in order.  They read a float64
    array through a memoryview, one Python float at a time, so the values
    are never held as a list; any other iterable is first read into such
    an array.
    """
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, float)
    vals = memoryview(np.ascontiguousarray(values, dtype=float))
    count = len(vals)
    if count < 1:
        raise InvalidParameter("need at least one value")
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
        _check_integer("count_min", self.count_min)
        _check_integer("count_max", self.count_max)
        if not 0 <= self.count_min <= self.count_max:
            raise InvalidParameter("need 0 <= count_min <= count_max")
        # side and magnitudes, checked as contaminate's spec checks them
        ContaminationSpec(self.count_min, self.side, self.magnitude_range)


@dataclass(frozen=True)
class ConditionSpec:
    """One Monte Carlo condition: distribution, size, reps, contamination."""

    id: str
    distribution: DistributionSpec
    n: int
    reps: int
    contamination: ContaminationPlan | None = None

    def __post_init__(self):
        _check_integer("n", self.n)
        _check_integer("reps", self.reps)
        if self.n < 2:
            raise InvalidParameter("need n >= 2")
        if self.reps < 1:
            raise InvalidParameter("need reps >= 1")


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


def _replicate_range(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CS, b1 and degenerate flags of replications start..stop-1.

    The PCG64 states of the replications' draw streams, and of their
    contamination streams when the condition has a plan, are computed for
    a batch of whole blocks at a time (about _SEED_REPS replications), one
    pass per kind; no block seeds anything, and each block draws from its
    rows of the batch.  Replications are drawn straight into blocks of
    about _BLOCK_VALUES values and each block is scored at once; a row's
    draws and scores do not depend on its block or batch, so any split of
    the range gives the same results.
    """
    spec, base_seed, start, stop = args
    n, plan = spec.n, spec.contamination
    rows = max(1, min(_BLOCK_VALUES // n, stop - start))
    batch = rows * max(1, _SEED_REPS // rows)
    sampler = _BlockSampler(spec.distribution, plan)
    prefix = f"{spec.id}:".encode("utf-8")
    # one workspace for every block: the block itself, then the kernel's
    # sorted copy and two scratch blocks; a short last block uses the
    # leading rows of each, which are C-contiguous too
    space = np.empty((4, rows, n))
    weights = _l_weights(n)
    cs, b1 = np.empty(stop - start), np.empty(stop - start)
    degenerate = np.empty(stop - start, dtype=bool)
    for first in range(start, stop, batch):
        reps = range(first, min(first + batch, stop))
        states = _stream_states(base_seed, _stream_ids(prefix, reps))
        cstates = None if plan is None else \
            _stream_states(base_seed, _stream_ids(prefix, reps, b":contamination"))
        for lo in range(0, len(reps), rows):
            part = slice(lo, lo + rows)
            block = sampler.draw(states[part], None if plan is None else cstates[part],
                                 space[0, :len(reps[part])])
            scores = _score_rows(block, space[1:, :len(block)], weights)
            done = slice(first - start + lo, first - start + lo + len(block))
            cs[done], b1[done], degenerate[done] = scores.cs, scores.b1, scores.degenerate
    return cs, b1, degenerate


def _chunk_bounds(reps: int, chunks: int) -> list[tuple[int, int]]:
    # contiguous 1-based rep ranges covering 1..reps, for 1 <= chunks <= reps
    size, extra = divmod(reps, chunks)
    bounds = []
    start = 1
    for c in range(chunks):
        stop = start + size + (1 if c < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _pool_workers(jobs: int, reps: int) -> int:
    """Worker processes for a condition of `reps` replications: jobs,
    capped by the host's CPU count and by the number of replications."""
    return min(jobs, os.cpu_count() or 1, reps)


class _SharedPool:
    """The process pool that run_condition maps its ranges onto.

    The pool is built on the first call and reused while the worker count
    stays the same.  A new count, or a pool found broken as a call starts
    (a worker died since the last call), shuts the old pool down, waiting
    for its workers, and builds a new one.  Workers exit with the
    interpreter through concurrent.futures' exit hook.  A multiprocessing
    child joins its child processes before that hook runs, so a
    multiprocessing finalizer also shuts the pool down, ahead of the
    queues' own finalizers (priority 10) that the shutdown still needs.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._executor = None
        self._workers = 0
        self._finalizer = None

    def map(self, fn, tasks: list, workers: int) -> list:
        """fn over tasks on a pool of `workers` processes, in task order."""
        with self._lock:
            if self._workers != workers:
                self._build(workers)
            # Executor.map submits every task before it returns, so no other
            # thread can shut this pool down between submissions
            try:
                results = self._executor.map(fn, tasks)
            except BrokenProcessPool:
                self._build(workers)
                results = self._executor.map(fn, tasks)
        return list(results)

    def _build(self, workers: int) -> None:
        self._shutdown()
        self._executor = ProcessPoolExecutor(max_workers=workers)
        self._finalizer = Finalize(self._executor, self._executor.shutdown,
                                   exitpriority=20)
        self._workers = workers

    def _shutdown(self) -> None:
        """Shut the pool down and wait for its workers to exit; the caller
        holds the lock or is the only thread using the pool."""
        if self._finalizer is not None:
            self._finalizer()
        self._executor, self._workers, self._finalizer = None, 0, None

    def _forget(self) -> None:
        """In a forked child, drop the parent's pool and lock unused: the
        pool's manager thread does not exist here, so its futures would
        never finish, and the lock may have been held at the fork."""
        if self._finalizer is not None:
            self._finalizer.cancel()
        self.__init__()


_POOL = _SharedPool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL._forget)


def _check_outlier_limit(spec: ConditionSpec) -> None:
    """Raise InvalidParameter when the condition's plan may replace more
    than half of a sample (count_max above n/2); checked before any
    replication runs, so whether a condition runs does not depend on the
    outlier counts its replications draw."""
    plan = spec.contamination
    # as Python ints: a fixed-width numpy count would wrap when doubled
    if plan is not None and 2 * int(plan.count_max) > spec.n:
        raise InvalidParameter(f"count_max {plan.count_max} exceeds n/2 = {spec.n / 2:g}")


def run_condition(spec: ConditionSpec, base_seed: int, jobs: int = 1) -> ConditionResult:
    """Run all replications of one condition and aggregate.

    The replications are split into one contiguous range per worker, at
    most jobs workers and no more than the host has CPUs.  With more than
    one worker the ranges are mapped onto the process's shared pool, one
    task each; with one, the whole range runs in this process.  Results
    are reduced in replication order either way, so output is identical to
    a serial run.

    Raises InvalidParameter before any replication runs: for a jobs or
    base_seed that is not an integer, jobs below 1, and a plan whose
    count_max exceeds n/2.
    """
    _check_integer("jobs", jobs)
    _check_integer("base_seed", base_seed)
    if jobs < 1:
        raise InvalidParameter("need jobs >= 1")
    _check_outlier_limit(spec)
    workers = _pool_workers(jobs, spec.reps)
    if workers > 1:
        tasks = [(spec, base_seed, start, stop)
                 for start, stop in _chunk_bounds(spec.reps, workers)]
        chunks = _POOL.map(_replicate_range, tasks, workers)
        cs, b1, degenerate = (np.concatenate(col) for col in zip(*chunks))
    else:
        cs, b1, degenerate = _replicate_range((spec, base_seed, 1, spec.reps + 1))

    degenerate_count = int(degenerate.sum())
    cs_ave, cs_se = aggregate(cs)
    b1_ave, b1_se = (aggregate(b1[~degenerate]) if degenerate_count < spec.reps
                     else (0.0, 0.0))
    return ConditionResult(
        id=spec.id, reps=spec.reps,
        b1_ave=b1_ave, b1_se=b1_se, cs_ave=cs_ave, cs_se=cs_se,
        seed=base_seed, degenerate_count=degenerate_count,
    )


def table1_conditions(n: int = 200, reps: int = 10_000) -> tuple[ConditionSpec, ...]:
    """The six built-in lognormal conditions (four clean, two contaminated).

    Raises InvalidParameter for an n or reps out of range, and for an n
    below 10, where a contaminated condition could replace more than half
    of a sample, so a bad size fails before any condition runs.
    """
    high = ContaminationPlan(side="high", magnitude_range=TABLE1_HIGH_MAGNITUDES)
    low = ContaminationPlan(side="low", magnitude_range=TABLE1_LOW_MAGNITUDES)
    rows = (("1. sigma=0.2", 0.2, None), ("2. sigma=0.5", 0.5, None),
            ("3. sigma=1.0", 1.0, None), ("4. sigma=2.0", 2.0, None),
            ("5. sigma=0.5 outliers(high)", 0.5, high), ("6. sigma=1.0 outliers(low)", 1.0, low))
    specs = tuple(ConditionSpec(name, DistributionSpec.lognormal(sigma), n, reps, plan)
                  for name, sigma, plan in rows)
    for spec in specs:
        _check_outlier_limit(spec)
    return specs


def run_table1(base_seed: int, n: int = 200, reps: int = 10_000,
               jobs: int = 1) -> list[ConditionResult]:
    """Run the six built-in conditions at n=200, reps=10,000 by default.

    Every condition is built, and so checked, before the first one runs:
    an n below 10 raises InvalidParameter before any replication.
    """
    return [run_condition(spec, base_seed, jobs=jobs)
            for spec in table1_conditions(n=n, reps=reps)]


def _null_condition(dist: DistributionSpec, n: int = 100, reps: int = 100_000) -> ConditionSpec:
    """The condition of the null study of dist, at n=100, reps=100,000 by
    default; dist must be symmetric (normal or cauchy)."""
    if dist.kind not in ("normal", "cauchy"):
        raise InvalidParameter("null experiments need a symmetric distribution "
                               "(normal or cauchy)")
    return ConditionSpec(f"null-{dist.kind}", dist, n, reps)


def run_null(dist: DistributionSpec, n: int, reps: int, base_seed: int,
             jobs: int = 1) -> ConditionResult:
    """Null study of CS under a symmetric distribution (normal or cauchy)."""
    return run_condition(_null_condition(dist, n, reps), base_seed, jobs=jobs)


def run_gcurve(g_grid=DEFAULT_G_GRID, sds=DEFAULT_GCURVE_SDS, n: int = 100_000,
               base_seed: int = 0, loc: float = 0.0) -> list[GCurvePoint]:
    """CS of g-distribution samples along a grid of g values.

    For each underlying sd, one standard normal sample Z of size n is drawn
    and reused across the whole grid (common random numbers), which makes
    the increase of CS in g a sharp property of the output rather than a
    statistical one.  Each grid point maps a copy of Z to the family of
    DistributionSpec.tukey_g(g, loc, sd); every such spec is built, and so
    checked, before the first sample is drawn.

    Raises InvalidParameter for a grid that does not strictly increase, a
    g below 0, an sd not above 0, a non-finite g, sd or loc, an n or
    base_seed that is not an integer, or n below 2.
    """
    grid = list(g_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameter("g grid must be strictly increasing")
    _check_integer("n", n)
    _check_integer("base_seed", base_seed)
    if n < 2:
        raise InvalidParameter("need n >= 2")
    rows = [(sd, [DistributionSpec.tukey_g(g, loc, sd) for g in grid]) for sd in sds]
    # one workspace and one set of L-weights for every sample, as a range
    # has: the sample itself, then the kernel's sorted copy and scratch
    space = np.empty((4, 1, n))
    values, work = space[0], space[1:]
    weights = _l_weights(n)
    points = []
    for sd, specs in rows:
        z = RngStream(base_seed, derive_stream_id("gcurve", f"sd={sd!r}")).standard_normal(n)
        for spec in specs:
            np.copyto(values, z)
            _transform(values, spec)
            _check_finite(values)
            cs = float(_score_rows(values, work, weights).cs[0])
            points.append(GCurvePoint(g=float(spec.g), sd=float(sd), cs=cs, n=n))
    return points
